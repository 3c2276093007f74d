// Lint fixture tree (orphan-module, ok): header-only, included by another
// module's translation unit. Never compiled.
// extdict-lint-expect: none
#pragma once

inline int detail_value() { return 4; }
