// extdict-lint-expect: none
// Compliant: a parallel loop that does not encode, a serial loop of single
// encodes, a waived per-request loop, an encode after (not inside) a
// parallel loop, and a commented-out directive.

#include <cstddef>

void scale(double* y, long n) {
#pragma omp parallel for default(none) shared(y, n)
  for (long j = 0; j < n; ++j) y[j] *= 2.0;
}

template <class Coder, class Code>
void code_serially(const Coder& coder, const double* const* cols, Code* out,
                   long n) {
  for (long j = 0; j < n; ++j) out[j] = coder.encode(cols[j]);
}

template <class Coder, class Code, class Config>
void code_requests(const Coder& coder, const double* const* cols,
                   const Config* configs, Code* out, long n) {
  // extdict-lint: allow(per-column-encode-loop) per-request stopping rules
#pragma omp parallel for default(none) shared(coder, cols, configs, out, n)
  for (long j = 0; j < n; ++j) out[j] = coder.encode(cols[j], configs[j]);
}

template <class Coder, class Code>
Code code_after(const Coder& coder, double* y, long n) {
#pragma omp parallel for default(none) shared(y, n)
  for (long j = 0; j < n; ++j) y[j] = 0.0;
  // #pragma omp parallel for  <- commented out, not a directive
  return coder.encode(y);
}
