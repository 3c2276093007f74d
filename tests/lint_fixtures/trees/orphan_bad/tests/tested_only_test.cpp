// Lint fixture tree (orphan-module, bad): a test includer does not make a
// module live. Never compiled.
// extdict-lint-expect: none
#include "core/live.hpp"
#include "core/tested_only.hpp"

int test_entry() { return live_entry() + tested_only_entry(); }
