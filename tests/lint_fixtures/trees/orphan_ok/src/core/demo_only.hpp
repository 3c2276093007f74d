// Lint fixture tree (orphan-module, ok): included only by an example, but
// waived on the line above `#pragma once`. Never compiled.
// extdict-lint-expect: none
// extdict-lint: allow(orphan-module) the fixture's stand-in for a tool-facing module
#pragma once

inline int demo_only_entry() { return 5; }
