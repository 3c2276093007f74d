#include "core/dist_exd.hpp"

#include "core/dist_gram.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace extdict::core {

DistExdResult exd_transform_distributed(const dist::Cluster& cluster,
                                        const Matrix& a, const ExdConfig& config) {
  EXTDICT_REQUIRE_SHAPE(
      config.dictionary_size > 0 && config.dictionary_size <= a.cols(),
      "exd_transform_distributed: dictionary_size out of range");
  const Index m = a.rows();
  const Index l = config.dictionary_size;
  const Index n = a.cols();
  const ColumnPartition part{n, cluster.topology().total()};

  DistExdResult result;
  const util::TraceScope phase(
      util::MetricsRegistry::global().span("exd.transform_distributed"),
      "exd.transform_distributed");
  util::Timer timer;

  // Per-rank outputs stitched together after the run. Each rank writes only
  // its own slot; rank 0 additionally fills the gathered collections.
  std::vector<Index> atoms(static_cast<std::size_t>(l));
  std::vector<Index> all_counts;
  std::vector<Index> all_rows;
  std::vector<la::Real> all_values;

  result.stats = cluster.run([&](dist::Communicator& comm) {
    const util::TraceScope rank_trace(util::TraceRecorder::global(),
                                      "dist_exd.rank");
    const Index rank = comm.rank();
    const Index b = part.begin(rank);
    const Index e = part.end(rank);
    const Index local_n = e - b;

    // Step 0: rank 0 draws the atom index set and broadcasts it.
    std::vector<Index> atom_local(static_cast<std::size_t>(l));
    if (rank == 0) {
      la::Rng rng(config.seed);
      atom_local = rng.sample_without_replacement(n, l);
    }
    comm.broadcast(0, std::span<Index>(atom_local));

    // Step 1: the dictionary columns travel from rank 0 (who owns the
    // sampled data) to everyone: L·M words through the broadcast tree.
    Matrix dict(m, l);
    if (rank == 0) {
      for (Index j = 0; j < l; ++j) {
        const auto src = a.col(atom_local[static_cast<std::size_t>(j)]);
        std::copy(src.begin(), src.end(), dict.col(j).begin());
      }
    }
    comm.broadcast(0, std::span<la::Real>(
                          dict.data(), static_cast<std::size_t>(dict.size())));

    comm.cost().record_memory(
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(l) +
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(local_n));

    // Steps 2-3: code the local block column by column.
    sparsecoding::OmpConfig omp;
    omp.tolerance = config.tolerance;
    omp.max_atoms = config.max_atoms;
    const sparsecoding::BatchOmp coder(dict, omp);
    // Gram precompute: M·L² mult-add pairs, once per rank.
    comm.cost().add_flops(2 * static_cast<std::uint64_t>(m) *
                          static_cast<std::uint64_t>(l) *
                          static_cast<std::uint64_t>(l));

    std::vector<Index> counts;
    std::vector<Index> rows;
    std::vector<la::Real> values;
    counts.reserve(static_cast<std::size_t>(local_n));
    {
      const util::TraceScope encode_trace(
          util::TraceRecorder::global(), "dist_exd.encode", "columns",
          static_cast<std::uint64_t>(local_n));
      for (Index j = b; j < e; ++j) {
        const auto code = coder.encode(a.col(j));
        counts.push_back(code.nnz());
        for (const auto& [atom, coeff] : code.entries) {
          rows.push_back(atom);
          values.push_back(coeff);
        }
        // Metered: encode_flops(nnz) holds only for clean runs.
        comm.cost().add_flops(code.flops);
      }
    }

    // Gather the per-block pieces on rank 0 (rank blocks arrive in order).
    auto gathered_counts = comm.gather(0, std::span<const Index>(counts));
    auto gathered_rows = comm.gather(0, std::span<const Index>(rows));
    auto gathered_values = comm.gather(0, std::span<const la::Real>(values));
    if (rank == 0) {
      atoms = std::move(atom_local);
      all_counts = std::move(gathered_counts);
      all_rows = std::move(gathered_rows);
      all_values = std::move(gathered_values);
    }
  });

  // Assemble C from the gathered stream.
  la::CscMatrix::Builder builder(l, n);
  std::size_t cursor = 0;
  for (Index j = 0; j < n; ++j) {
    const Index count = all_counts[static_cast<std::size_t>(j)];
    for (Index k = 0; k < count; ++k) {
      builder.add(all_rows[cursor], all_values[cursor]);
      ++cursor;
    }
    builder.commit_column();
  }

  result.exd.dictionary = a.select_columns(atoms);
  result.exd.coefficients = std::move(builder).build();
  result.exd.atom_indices = std::move(atoms);
  result.exd.transform_ms = timer.elapsed_ms();
  result.exd.transformation_error = transformation_error(
      a, result.exd.dictionary, result.exd.coefficients);
  util::MetricsRegistry::global().add("exd.transform_nnz",
                                      result.exd.coefficients.nnz());
  return result;
}

}  // namespace extdict::core
