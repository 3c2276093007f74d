// Lint fixture tree (orphan-module, bad): a header with a real caller in
// bench/. Never compiled — scanned by extdict-lint's self-test.
// extdict-lint-expect: none
#pragma once

int live_entry();
