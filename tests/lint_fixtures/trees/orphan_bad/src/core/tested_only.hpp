// Lint fixture tree (orphan-module, bad): included only by its own .cpp and
// a test, so the module has no caller. Never compiled.
// extdict-lint-expect: orphan-module
#pragma once  // extdict-lint-hit

int tested_only_entry();
