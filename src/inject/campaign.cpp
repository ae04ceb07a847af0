#include "inject/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/dispatch.hpp"
#include "core/gemm.hpp"
#include "inject/injectors.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ftgemm {

namespace {

struct Shape {
  index_t m, n, k;
};

// Default shapes (CampaignConfig::size == 0): both exceed the fast-path flop
// cutoff, so the general blocked path (cooperative packing, the tm.single B~
// strike, per-thread A~) runs, and both are odd-sized, so partial register
// tiles leave zero padding in the packed panels that the live-element
// remapping must skip.
constexpr Shape kF64Shape{96, 80, 320};
constexpr Shape kI8Shape{128, 96, 384};

bool int8_surface(CampaignSurface s) {
  return s == CampaignSurface::kPanelA || s == CampaignSurface::kPanelB;
}

MemorySurface memory_surface(CampaignSurface s) {
  switch (s) {
    case CampaignSurface::kPanelA: return MemorySurface::kPanelA;
    case CampaignSurface::kPanelB: return MemorySurface::kPanelB;
    case CampaignSurface::kPlan: return MemorySurface::kPlan;
    default: return MemorySurface::kResidentPanel;
  }
}

/// Nonzero operands: a corrupted packed element always perturbs the
/// product, so a strike no defense catches shows in C (a zero operand could
/// hide it and make "silent" undecidable).
void fill(std::vector<double>& v, Xoshiro256& rng) {
  for (double& x : v) x = 1.0 + double(rng.bounded(512)) / 64.0;
}
void fill(std::vector<std::int8_t>& v, Xoshiro256& rng) {
  for (std::int8_t& x : v) x = std::int8_t(1 + rng.bounded(7));
}

/// Worst element-wise relative difference; a NaN difference is infinite.
template <typename T>
double rel_error(const T* got, const T* want, std::size_t len) {
  double worst = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const double x = double(got[i]), y = double(want[i]);
    const double d =
        std::abs(x - y) / std::max({std::abs(x), std::abs(y), 1.0});
    if (!(d <= worst))
      worst = std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
  }
  return worst;
}

/// The cell's one injector: CountInjector deltas on the compute surface,
/// SurfaceBitFlipInjector flips on a memory surface, none when faults == 0.
class Striker {
 public:
  explicit Striker(const CampaignConfig& cfg) {
    if (cfg.faults <= 0) return;
    if (cfg.surface == CampaignSurface::kCompute) {
      deltas_.emplace(cfg.faults, cfg.seed + 7, cfg.magnitude);
    } else {
      flips_.emplace(memory_surface(cfg.surface), cfg.faults, cfg.burst,
                     cfg.seed);
    }
  }

  /// `opts` with the injector attached and armed for one trial.
  Options arm(Options opts) {
    if (deltas_) opts.injector = &*deltas_;
    if (flips_) {
      flips_->arm();
      opts.memory_injector = &*flips_;
    }
    return opts;
  }

  [[nodiscard]] std::int64_t applied() const {
    if (deltas_) return std::int64_t(deltas_->injected_count());
    if (flips_) return std::int64_t(flips_->applied_count());
    return 0;
  }

 private:
  std::optional<CountInjector> deltas_;
  std::optional<SurfaceBitFlipInjector> flips_;
};

struct UnitRun {
  FtReport report;
  bool coalesced = false;
};

/// Operands of every unit and the entry point that runs them.  Unit u owns
/// the u-th m*k / k*n / m*n slice of A, B and C (the strides of a batched
/// call, the private operands of a request).
template <typename S, typename C>
class Cell {
 public:
  using Scalar = detail::ScalarOf<S, C>;

  Cell(const CampaignConfig& cfg, Shape shape)
      : cfg_(cfg), s_(shape),
        units_(cfg.entry == CampaignEntry::kBatched ||
                       cfg.entry == CampaignEntry::kService
                   ? cfg.units
                   : 1),
        a_(std::size_t(units_ * s_.m * s_.k)),
        b_(std::size_t(units_ * s_.k * s_.n)) {
    Xoshiro256 rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);
    fill(a_, rng);
    fill(b_, rng);
    base_.threads = cfg.threads;
    base_.resident_a = cfg.surface == CampaignSurface::kResident;
    if (cfg.entry == CampaignEntry::kService) {
      // Staged while paused, then released: the routing mix (the targeted
      // request direct, clean traffic coalesced around it) is a property
      // of the workload, not of submission timing.
      serve::ServiceConfig scfg;
      scfg.start_paused = true;
      scfg.queue_capacity = std::size_t(units_);
      service_ = std::make_unique<serve::GemmService>(scfg);
    }
  }

  [[nodiscard]] index_t units() const { return units_; }
  [[nodiscard]] std::size_t unit_elems() const {
    return std::size_t(s_.m * s_.n);
  }
  [[nodiscard]] const Options& base() const { return base_; }
  [[nodiscard]] double gflops(double seconds) const {
    return double(units_) * gemm_gflops(double(s_.m), double(s_.n),
                                        double(s_.k), seconds);
  }

  /// Run every unit of one trial into `c`: unit `target` under `struck`,
  /// the rest under base().
  std::vector<UnitRun> run(std::vector<Scalar>& c, const Options& struck,
                           index_t target) {
    const index_t m = s_.m, n = s_.n, k = s_.k;
    const Trans nt = Trans::kNoTrans;
    std::fill(c.begin(), c.end(), Scalar(0));
    std::vector<UnitRun> out(static_cast<std::size_t>(units_));
    switch (cfg_.entry) {
      case CampaignEntry::kSync:
        out[0].report = detail::dispatch<S, true, C>(
            Layout::kColMajor, nt, nt, m, n, k, Scalar(1), a_.data(), m,
            b_.data(), k, Scalar(0), c.data(), m, struck);
        break;
      case CampaignEntry::kReliable:
        if constexpr (std::is_same_v<S, double>) {
          out[0].report = ft_dgemm_reliable(
              Layout::kColMajor, nt, nt, m, n, k, 1.0, a_.data(), m,
              b_.data(), k, 0.0, c.data(), m, struck);
        }
        break;
      case CampaignEntry::kBatched: {
        // The compute injector attaches to the target member only; a
        // memory injector rides the whole call and strikes whichever
        // member reaches its surface first.
        BatchOptions bopts;
        bopts.base = struck;
        bopts.schedule = cfg_.schedule;
        bopts.inject_problem = target;
        BatchReport rep = detail::run_strided_batched<S, true, C>(
            Layout::kColMajor, nt, nt, m, n, k, Scalar(1), a_.data(), m,
            m * k, b_.data(), k, k * n, Scalar(0), c.data(), m, m * n,
            units_, bopts);
        for (std::size_t u = 0; u < out.size(); ++u)
          out[u].report = rep.per_problem[u];
        break;
      }
      case CampaignEntry::kService: {
        std::vector<serve::GemmFuture> futures;
        for (index_t u = 0; u < units_; ++u) {
          futures.push_back(service_->submit(serve::make_gemm_request<S>(
              true, Layout::kColMajor, nt, nt, m, n, k, Scalar(1),
              a_.data() + u * m * k, m, b_.data() + u * k * n, k, Scalar(0),
              c.data() + u * m * n, m, u == target ? struck : base_)));
        }
        service_->resume();
        for (std::size_t u = 0; u < out.size(); ++u) {
          const serve::GemmResult res = futures[u].wait();
          out[u].report = res.report;
          out[u].coalesced = res.coalesced;
        }
        service_->pause();
        break;
      }
    }
    return out;
  }

 private:
  CampaignConfig cfg_;
  Shape s_;
  index_t units_;
  std::vector<S> a_, b_;
  Options base_;
  std::unique_ptr<serve::GemmService> service_;
};

template <typename S, typename C>
CampaignResult run_cell(const CampaignConfig& cfg, Shape shape) {
  using Scalar = detail::ScalarOf<S, C>;
  ContextCache<S, C>& cache = process_context_cache<S, C>();
  Cell<S, C> cell(cfg, shape);
  const std::size_t len = cell.unit_elems();
  std::vector<Scalar> ref(std::size_t(cell.units()) * len);
  std::vector<Scalar> c(ref.size());

  // The oracle: a fault-free run of the same entry point on the same
  // operands.  It also builds the plan and encodes the resident payloads
  // the trials then hit (the plan and resident strikes land on hits).
  (void)cell.run(ref, cell.base(), 0);

  Striker striker(cfg);
  Xoshiro256 target_rng(cfg.seed + 99);
  const bool bit_exact = cfg.surface != CampaignSurface::kCompute;
  CampaignResult res;
  double gflops_sum = 0.0;
  for (int t = 0; t < cfg.trials; ++t) {
    const index_t target =
        index_t(target_rng.bounded(std::uint64_t(cell.units())));
    const std::uint64_t plan_heals_before = cache.plan_heals();
    const WallTimer timer;
    const std::vector<UnitRun> units =
        cell.run(c, striker.arm(cell.base()), target);
    gflops_sum += cell.gflops(timer.seconds());
    const std::int64_t plan_heals =
        std::int64_t(cache.plan_heals() - plan_heals_before);
    res.plan_heals += plan_heals;

    bool detected = plan_heals > 0, flagged = false, silent = false;
    for (std::size_t u = 0; u < units.size(); ++u) {
      const FtReport& rep = units[u].report;
      const Scalar* got = c.data() + u * len;
      const Scalar* want = ref.data() + u * len;
      const double err = rel_error(got, want, len);
      const bool wrong =
          bit_exact ? std::memcmp(got, want, len * sizeof(Scalar)) != 0
                    : !(err <= 1e-9);
      res.max_rel_error = std::max(res.max_rel_error, err);
      res.errors_detected += rep.errors_detected;
      res.errors_corrected += rep.errors_corrected;
      res.heals += rep.resident_heals;
      res.retries += rep.retries;
      res.coalesced += units[u].coalesced ? 1 : 0;
      detected = detected || rep.errors_detected > 0 ||
                 rep.uncorrectable_panels > 0 || rep.resident_heals > 0;
      flagged = flagged || !rep.clean();
      silent = silent || (rep.clean() && wrong);
    }
    if (silent) {
      ++res.silent;
    } else if (detected) {
      ++res.detected;
      if (flagged) ++res.flagged;
    } else {
      ++res.masked;
    }
  }
  res.injected = striker.applied();
  res.mean_gflops = gflops_sum / double(std::max(cfg.trials, 1));
  return res;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  if (config.entry == CampaignEntry::kReliable &&
      int8_surface(config.surface)) {
    throw std::invalid_argument(
        "run_campaign: panel_a / panel_b run on int8, which has no reliable "
        "entry point");
  }
  if (config.size < 0 || config.units < 1) {
    throw std::invalid_argument(
        "run_campaign: size must be >= 0 and units >= 1");
  }
  // Cells are independent experiments: none may inherit another's (or the
  // host process's) cached plans or resident payloads.
  clear_process_caches();
  const auto shape = [&](Shape fallback) {
    return config.size > 0 ? Shape{config.size, config.size, config.size}
                           : fallback;
  };
  return int8_surface(config.surface)
             ? run_cell<std::int8_t, std::int32_t>(config, shape(kI8Shape))
             : run_cell<double, double>(config, shape(kF64Shape));
}

std::vector<CampaignConfig> memory_fault_grid(int trials,
                                              std::uint64_t seed) {
  std::vector<CampaignConfig> grid;
  for (const CampaignSurface surface :
       {CampaignSurface::kResident, CampaignSurface::kPanelA,
        CampaignSurface::kPanelB, CampaignSurface::kPlan}) {
    for (const int faults : {1, 4}) {
      for (const int burst : {1, 3}) {
        CampaignConfig cfg;
        cfg.surface = surface;
        cfg.faults = faults;
        cfg.burst = burst;
        cfg.trials = trials;
        cfg.seed = seed;
        grid.push_back(cfg);
      }
    }
  }
  return grid;
}

const char* campaign_entry_name(CampaignEntry entry) {
  switch (entry) {
    case CampaignEntry::kSync: return "sync";
    case CampaignEntry::kReliable: return "reliable";
    case CampaignEntry::kBatched: return "batched";
    case CampaignEntry::kService: return "service";
  }
  return "unknown";
}

const char* campaign_surface_name(CampaignSurface surface) {
  return surface == CampaignSurface::kCompute
             ? "compute"
             : memory_surface_name(memory_surface(surface));
}

}  // namespace ftgemm
