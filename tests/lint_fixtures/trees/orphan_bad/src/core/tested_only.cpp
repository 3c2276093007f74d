// Lint fixture tree (orphan-module, bad). Never compiled.
// extdict-lint-expect: none
#include "core/tested_only.hpp"

int tested_only_entry() { return 2; }
