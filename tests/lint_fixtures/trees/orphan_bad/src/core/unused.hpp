// Lint fixture tree (orphan-module, bad): a header-only module nothing
// includes at all. Never compiled.
// extdict-lint-expect: orphan-module
#pragma once  // extdict-lint-hit

inline int unused_entry() { return 3; }
