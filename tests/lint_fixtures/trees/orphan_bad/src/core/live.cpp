// Lint fixture tree (orphan-module, bad). Never compiled.
// extdict-lint-expect: none
#include "core/live.hpp"

int live_entry() { return 1; }
