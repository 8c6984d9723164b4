#include "decks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "apps/cleverleaf/cleverleaf.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "perf/blackboard.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace clover = apollo::apps::cleverleaf;
namespace lulesh = apollo::apps::lulesh;
using apollo::perf::ScopedAnnotation;

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class CloverDeck final : public Deck {
public:
  explicit CloverDeck(int coarse_cells) : sim_(config(coarse_cells)), size_(coarse_cells) {}

  void step(SpanRecorder* spans, std::uint64_t step_id) override {
    const ScopedSpan span(spans, "apps.step", step_id);
    const ScopedAnnotation problem("problem_name", "clover-triple_point");
    const ScopedAnnotation size("problem_size", size_);
    const ScopedAnnotation timestep("timestep", sim_.cycle());
    sim_.step();
  }

  [[nodiscard]] std::vector<double> state() const override {
    std::vector<double> out;
    for (const auto& level : sim_.levels()) {
      for (const auto& patch : level.patches) {
        out.insert(out.end(), {static_cast<double>(patch.box.i0), static_cast<double>(patch.box.j0),
                               static_cast<double>(patch.box.i1),
                               static_cast<double>(patch.box.j1)});
        for (int j = patch.box.j0; j <= patch.box.j1; ++j) {
          for (int i = patch.box.i0; i <= patch.box.i1; ++i) {
            const auto c = static_cast<std::size_t>(patch.idx(i, j));
            out.insert(out.end(), {patch.rho[c], patch.mx[c], patch.my[c], patch.en[c]});
          }
        }
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<double> invariants() const override {
    return {sim_.total_mass(), sim_.total_energy()};  // level 0
  }

private:
  static clover::CleverConfig config(int coarse_cells) {
    clover::CleverConfig cfg;
    cfg.problem = "triple_point";
    cfg.coarse_cells = coarse_cells;
    return cfg;
  }

  clover::Simulation sim_;
  int size_;
};

class LuleshEnsembleDeck final : public Deck {
public:
  explicit LuleshEnsembleDeck(const std::vector<int>& edges) {
    for (int edge : edges) meshes_.push_back(std::make_unique<lulesh::Simulation>(edge));
  }

  void step(SpanRecorder* spans, std::uint64_t step_id) override {
    const ScopedSpan span(spans, "apps.step", step_id);
    const ScopedAnnotation problem("problem_name", "lulesh-sedov");
    for (std::size_t m = 0; m < meshes_.size(); ++m) {
      const ScopedSpan mesh_span(spans, "apps.mesh_step", m);
      lulesh::Simulation& sim = *meshes_[m];
      const ScopedAnnotation size("problem_size", sim.domain().s);
      const ScopedAnnotation timestep("timestep", sim.domain().cycle);
      sim.step();
    }
  }

  [[nodiscard]] std::vector<double> state() const override {
    std::vector<double> out;
    for (const auto& mesh : meshes_) {
      const lulesh::Domain& d = mesh->domain();
      for (const auto* field : {&d.x, &d.y, &d.z, &d.xd, &d.yd, &d.zd, &d.e, &d.p, &d.q, &d.v}) {
        out.insert(out.end(), field->begin(), field->end());
      }
      out.push_back(d.time);
    }
    return out;
  }

  [[nodiscard]] std::vector<double> invariants() const override {
    // Internal + kinetic energy summed over the ensemble.
    double total = 0.0;
    for (const auto& mesh : meshes_) {
      const lulesh::Domain& d = mesh->domain();
      for (int e = 0; e < d.numElem; ++e) {
        const auto i = static_cast<std::size_t>(e);
        total += d.e[i] * d.volo[i];
      }
      for (int n = 0; n < d.numNode; ++n) {
        const auto i = static_cast<std::size_t>(n);
        total += 0.5 * d.nodalMass[i] * (d.xd[i] * d.xd[i] + d.yd[i] * d.yd[i] + d.zd[i] * d.zd[i]);
      }
    }
    return {total};
  }

private:
  std::vector<std::unique_ptr<lulesh::Simulation>> meshes_;
};

/// Four mesh edges, one from each band, whose total element count lies
/// within 0.2% of a fixed target: the seed changes which meshes run, not how
/// much work a step is, so runs on different seeds stay comparable.
std::vector<int> lulesh_edges(std::uint64_t seed) {
  constexpr double kTarget = 12.0 * 12 * 12 + 20.0 * 20 * 20 + 32.0 * 32 * 32 + 44.0 * 44 * 44;
  static_assert(kTarget == 127680.0);
  std::vector<std::vector<int>> candidates;
  for (int a = 10; a <= 14; ++a) {
    for (int b = 16; b <= 24; ++b) {
      for (int c = 26; c <= 36; ++c) {
        for (int d = 40; d <= 48; ++d) {
          const double cells = double(a) * a * a + double(b) * b * b + double(c) * c * c +
                               double(d) * d * d;
          if (std::fabs(cells - kTarget) <= 0.002 * kTarget) candidates.push_back({a, b, c, d});
        }
      }
    }
  }
  return candidates[splitmix64(seed) % candidates.size()];
}

}  // namespace

std::string DeckSpec::describe() const {
  const auto join = [](const std::vector<int>& values) {
    std::string out;
    for (int v : values) {
      if (!out.empty()) out += ',';
      out += std::to_string(v);
    }
    return out;
  };
  return app + " sizes=" + join(sizes) + " train_sizes=" + join(train_sizes) +
         " solve_steps=" + std::to_string(solve_steps);
}

DeckSpec deck_spec(const std::string& workload, std::uint64_t seed) {
  DeckSpec spec;
  if (workload == "clover-amr-tune" || workload == "clover-amr-adapt") {
    spec.app = "cleverleaf";
    // Coarse sizes whose AMR hierarchies launch the same number of kernels
    // per solve within 2% (47 launches 26% more, 50 5% more).
    static constexpr int kCoarseCells[] = {46, 48, 49};
    spec.sizes = {kCoarseCells[splitmix64(seed) % 3]};
    spec.train_sizes = {48};
    spec.solve_steps = 200;
    spec.record_steps = 8;
    spec.warmup_steps = 20;
  } else if (workload == "lulesh-sizes-tune") {
    spec.app = "lulesh";
    spec.sizes = lulesh_edges(seed);
    spec.train_sizes = {12, 20, 32, 44};
    spec.solve_steps = 40;
    spec.record_steps = 6;
    spec.warmup_steps = 5;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return spec;
}

std::unique_ptr<Deck> make_deck(const std::string& app, const std::vector<int>& sizes) {
  if (app == "cleverleaf") return std::make_unique<CloverDeck>(sizes.front());
  return std::make_unique<LuleshEnsembleDeck>(sizes);
}

double state_mismatch(const std::vector<double>& a, const std::vector<double>& b, double rtol,
                      double atol) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = atol + rtol * std::max(std::fabs(a[i]), std::fabs(b[i]));
    const double diff = std::fabs(a[i] - b[i]);
    if (!(diff <= scale * 1e300)) return std::numeric_limits<double>::infinity();  // NaN
    worst = std::max(worst, diff / scale);
  }
  return worst;
}

}  // namespace perfbench
