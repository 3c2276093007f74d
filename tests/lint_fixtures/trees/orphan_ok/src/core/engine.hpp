// Lint fixture tree (orphan-module, ok): called from bench/. Never
// compiled — scanned by extdict-lint's self-test.
// extdict-lint-expect: none
#pragma once

int engine_entry();
