#pragma once

// The input decks the benchmark drives: a CleverLeaf triple-point AMR run and
// an ensemble of LULESH Sedov meshes stepped round-robin. The workload seed
// picks the sizes (deck_spec); a deck is stepped one benchmark step at a
// time and exports its final state and its conservation totals for the
// output check.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder;

class Deck {
public:
  virtual ~Deck() = default;

  /// One benchmark step (one application time step; for the LULESH
  /// ensemble, one time step of every mesh in turn). Publishes the same
  /// blackboard annotations as the application's own run loop.
  virtual void step(SpanRecorder* spans, std::uint64_t step_id) = 0;

  /// Every conserved field of the final state, flattened in a fixed order.
  [[nodiscard]] virtual std::vector<double> state() const = 0;
  /// Conserved totals the check compares with the deck's initial state.
  [[nodiscard]] virtual std::vector<double> invariants() const = 0;
};

/// What the seed chose for a workload, and how a solve of it is shaped.
struct DeckSpec {
  std::string app;                ///< "cleverleaf" | "lulesh"
  std::vector<int> sizes;         ///< coarse cells (one) or mesh edges (several)
  /// Sizes of the deck the Record sweep trains on. Fixed per application:
  /// the models are trained once on representative inputs and reused on the
  /// seed's inputs, so set-up and every decision repeat across seeds.
  std::vector<int> train_sizes;
  int solve_steps = 0;            ///< benchmark steps in one timed solve
  int record_steps = 0;           ///< steps of the Record sweep during set-up
  int warmup_steps = 0;           ///< tuned steps run during set-up
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] DeckSpec deck_spec(const std::string& workload, std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Deck> make_deck(const std::string& app, const std::vector<int>& sizes);

/// Largest |a-b| / (atol + rtol * max(|a|,|b|)) over two flattened states;
/// infinite when their lengths differ. <= 1 means the states agree.
[[nodiscard]] double state_mismatch(const std::vector<double>& a, const std::vector<double>& b,
                                    double rtol, double atol);

}  // namespace perfbench
