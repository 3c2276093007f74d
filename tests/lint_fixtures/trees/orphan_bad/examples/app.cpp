// Lint fixture tree (orphan-module, bad): the one real caller of live.hpp.
// Never compiled.
// extdict-lint-expect: none
#include "core/live.hpp"

int main() { return live_entry(); }
