#include "tune/autotuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gpucnn::tune {
namespace {

// Version 2: the key grew a dtype word and the file header an "engines"
// field naming the engine set the writer shipped. Version-1 caches
// (pre-int8) are rejected wholesale on load — their decisions were made
// without the int8 candidates and would pin stale fp32-only picks.
constexpr std::size_t kCacheVersion = 2;
/// Prune a candidate whose single warm-up run is already this many times
/// slower than the best engine seen so far for the key.
constexpr double kPruneFactor = 2.5;

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::metrics().counter("tune.hits");
  return c;
}
obs::Counter& misses_counter() {
  static obs::Counter& c = obs::metrics().counter("tune.misses");
  return c;
}
obs::Counter& trials_counter() {
  static obs::Counter& c = obs::metrics().counter("tune.trials");
  return c;
}
obs::Gauge& ms_spent_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("tune.ms_spent");
  return g;
}

/// Whether `entry` belongs to the (pass, dtype) candidate pool: int8
/// engines only for int8 callers, backward passes only for engines that
/// have them (so the int8 engines, inference-only and lossy, join only
/// the int8 forward pool).
bool in_pool(const conv::EngineEntry& entry, Pass pass, Dtype dtype) {
  return (entry.dtype == Dtype::kF32 || dtype == Dtype::kInt8) &&
         (pass == Pass::kForward || entry.backward);
}

/// Comma-joined names of every engine this binary ships, in pool order —
/// the cache header field that invalidates caches written by binaries
/// with a different engine set.
std::string engine_set_string() {
  std::string out;
  for (const auto& e : conv::registry()) {
    if (!out.empty()) out += ',';
    out += std::string(e.name());
  }
  return out;
}

/// Scratch tensors for timing one (cfg, pass) key. Deterministic fill so
/// repeated measurements exercise identical data.
struct Workload {
  Tensor input, filters, output, grad_output, grad_input, grad_filters;
  std::map<conv::PackKind, conv::PackedFilters> packs;

  explicit Workload(const ConvConfig& cfg) {
    Rng rng(0x7u);
    input.resize(cfg.input_shape());
    input.fill_uniform(rng, -1.0F, 1.0F);
    filters.resize(cfg.filter_shape());
    filters.fill_uniform(rng, -0.5F, 0.5F);
    output.resize(cfg.output_shape());
    grad_output.resize(cfg.output_shape());
    grad_output.fill_uniform(rng, -1.0F, 1.0F);
    grad_input.resize(cfg.input_shape());
    grad_filters.resize(cfg.filter_shape());
  }

  /// The forward pack `engine` reads, built on first use of its kind and
  /// outside every timed region: the timed runs then measure the
  /// pack-once/execute-many form the inference layers actually execute
  /// after freeze_for_inference(). One pack per kind serves every
  /// candidate of that kind.
  const conv::PackedFilters* pack_for(const conv::ConvEngine& engine,
                                      const ConvConfig& cfg, Pass pass) {
    const conv::PackKind kind = engine.pack_kind();
    if (pass != Pass::kForward || kind == conv::PackKind::kNone) {
      return nullptr;
    }
    auto it = packs.find(kind);
    if (it == packs.end()) {
      it = packs.emplace(kind, conv::prepack_filters(cfg, filters, engine))
               .first;
    }
    return &it->second;
  }

  void run(const conv::ConvEngine& engine, const conv::PackedFilters* packed,
           const ConvConfig& cfg, Pass pass) {
    switch (pass) {
      case Pass::kForward:
        engine.forward(cfg, input, {filters, packed}, output);
        break;
      case Pass::kBackwardData:
        engine.backward_data(cfg, grad_output, filters, grad_input);
        break;
      case Pass::kBackwardFilter:
        engine.backward_filter(cfg, input, grad_output, grad_filters);
        break;
    }
  }
};

/// No prune bound: every candidate gets its timed repetitions.
constexpr double kNoPrune = std::numeric_limits<double>::infinity();

/// Times `engine` on the workload: one warm-up run, then `trials` timed
/// runs unless the warm-up already exceeds `prune_ms`, reporting the
/// minimum. Every run counts as a trial and its wall time accumulates in
/// `spent_ms`.
double time_engine(Workload& work, const conv::ConvEngine& engine,
                   const ConvConfig& cfg, Pass pass, int trials,
                   double prune_ms, double& spent_ms) {
  const conv::PackedFilters* packed = work.pack_for(engine, cfg, pass);
  Timer timer;
  work.run(engine, packed, cfg, pass);
  const double warmup_ms = timer.elapsed_ms();
  trials_counter().add(1);
  spent_ms += warmup_ms;
  if (warmup_ms > prune_ms) return warmup_ms;

  double best = warmup_ms;
  for (int t = 0; t < trials; ++t) {
    timer.reset();
    work.run(engine, packed, cfg, pass);
    const double ms = timer.elapsed_ms();
    trials_counter().add(1);
    spent_ms += ms;
    best = std::min(best, ms);
  }
  return best;
}

/// The cache entry's names for the eight ConvConfig key words, in key
/// order.
constexpr std::array<std::string_view, 8> kConfigFields = {
    "batch", "input", "channels", "filters",
    "kernel", "stride", "pad", "groups"};

/// The value among `values` whose to_string is `name`, if any.
template <typename Enum>
std::optional<Enum> from_name(std::string_view name,
                              std::initializer_list<Enum> values) {
  for (const Enum value : values) {
    if (to_string(value) == name) return value;
  }
  return std::nullopt;
}

double number_or(const obs::Json& obj, std::string_view key, double fallback) {
  const obs::Json* v = obj.find(key);
  return v != nullptr && v->type() == obs::Json::Type::kNumber ? v->as_number()
                                                               : fallback;
}

std::string string_or(const obs::Json& obj, std::string_view key) {
  const obs::Json* v = obj.find(key);
  return v != nullptr && v->type() == obs::Json::Type::kString ? v->as_string()
                                                               : std::string{};
}

/// The count or size stored under `key`, or nullopt unless it is a
/// number that is integral and in [0, 2^53] (every such double converts
/// to std::size_t exactly; -1, 1.5, 1e300, inf and NaN do not, and a
/// cast of the last three would be undefined behaviour).
std::optional<std::size_t> size_field(const obs::Json& obj,
                                      std::string_view key) {
  const obs::Json* v = obj.find(key);
  if (v == nullptr || v->type() != obs::Json::Type::kNumber) {
    return std::nullopt;
  }
  const double x = v->as_number();
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  // Written so that NaN fails the first comparison.
  if (!(x >= 0.0 && x <= kMaxExact) || x != std::floor(x)) return std::nullopt;
  return static_cast<std::size_t>(x);
}

/// The cache's rendering of a key hash. Hex string: a JSON double cannot
/// carry 64 hash bits exactly.
std::string hash_hex(std::uint64_t hash) {
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

/// Thread count folded into the cache key: workers + the caller-runs
/// thread, the parallelism every engine actually sees.
std::size_t active_threads() { return global_pool().size() + 1; }

}  // namespace

std::string_view to_string(Pass pass) {
  switch (pass) {
    case Pass::kForward: return "forward";
    case Pass::kBackwardData: return "backward-data";
    case Pass::kBackwardFilter: return "backward-filter";
  }
  return "?";
}

std::string_view to_string(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kHeuristic: return "heuristic";
    case Mode::kMeasure: return "measure";
  }
  return "?";
}

std::optional<Mode> parse_mode(std::string_view text) {
  return from_name(text, {Mode::kOff, Mode::kHeuristic, Mode::kMeasure});
}

std::string_view to_string(Dtype dtype) {
  switch (dtype) {
    case Dtype::kF32: return "fp32";
    case Dtype::kInt8: return "int8";
  }
  return "?";
}

Autotuner& Autotuner::instance() {
  static Autotuner tuner;
  return tuner;
}

Autotuner::Autotuner() : mode_(Mode::kHeuristic) {
  if (const char* env = std::getenv("GPUCNN_TUNE")) {
    if (const auto parsed = parse_mode(env)) mode_ = *parsed;
  }
  if (const char* env = std::getenv("GPUCNN_TUNE_CACHE")) {
    cache_path_ = env;
  }
}

Mode Autotuner::mode() const {
  std::lock_guard lock(mutex_);
  return mode_;
}

void Autotuner::set_mode(Mode mode) {
  std::lock_guard lock(mutex_);
  mode_ = mode;
}

Autotuner::Key Autotuner::make_key(const ConvConfig& cfg, Pass pass,
                                   Dtype dtype) {
  return {cfg.batch,  cfg.input, cfg.channels, cfg.filters,
          cfg.kernel, cfg.stride, cfg.pad,     cfg.groups,
          static_cast<std::size_t>(pass), static_cast<std::size_t>(dtype)};
}

std::uint64_t Autotuner::key_hash(const ConvConfig& cfg, Pass pass,
                                  Dtype dtype) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the key words
  for (const std::size_t word : make_key(cfg, pass, dtype)) {
    auto v = static_cast<std::uint64_t>(word);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

const conv::ConvEngine* Autotuner::choose(const ConvConfig& cfg, Pass pass,
                                          Dtype dtype) {
  std::lock_guard lock(mutex_);
  if (mode_ == Mode::kOff) return nullptr;
  return decide_locked(cfg, pass, dtype).engine;
}

Decision Autotuner::decide(const ConvConfig& cfg, Pass pass, Dtype dtype) {
  std::lock_guard lock(mutex_);
  return decide_locked(cfg, pass, dtype);
}

Decision Autotuner::decide_locked(const ConvConfig& cfg, Pass pass,
                                  Dtype dtype) {
  if (!cache_loaded_ && !cache_path_.empty()) (void)load_cache_locked();
  const Key key = make_key(cfg, pass, dtype);
  const auto it = memo_.find(key);
  if (it != memo_.end() &&
      (mode_ != Mode::kMeasure || it->second.measured)) {
    hits_counter().add(1);
    return it->second;
  }
  misses_counter().add(1);
  Decision d = mode_ == Mode::kMeasure ? measure_locked(cfg, pass, dtype)
                                       : heuristic_locked(cfg, pass, dtype);
  memo_[key] = d;
  if (d.measured) persist_locked();
  return d;
}

Decision Autotuner::heuristic_locked(const ConvConfig& cfg, Pass pass,
                                     Dtype dtype) {
  const auto order = search_order(cfg, pass, dtype);
  const conv::ConvEngine* engine =
      order.empty() ? &default_engine() : order.front();
  return {.engine = engine, .engine_name = engine->name()};
}

Decision Autotuner::measure_locked(const ConvConfig& cfg, Pass pass,
                                   Dtype dtype) {
  Workload work(cfg);
  const conv::ConvEngine* best_engine = nullptr;
  double best_ms = 0.0;
  double baseline_ms = 0.0;

  for (const conv::ConvEngine* engine : search_order(cfg, pass, dtype)) {
    // A warm-up already far behind the leader cannot win: skip its
    // timed repetitions (the search order makes this prune common).
    const double ms = time_engine(
        work, *engine, cfg, pass, trials_,
        best_engine == nullptr ? kNoPrune : kPruneFactor * best_ms,
        ms_spent_);
    if (engine == &default_engine()) baseline_ms = ms;
    if (best_engine == nullptr || ms < best_ms) {
      best_engine = engine;
      best_ms = ms;
    }
  }
  ms_spent_gauge().set(ms_spent_);
  if (best_engine == nullptr) best_engine = &default_engine();
  return {.engine = best_engine,
          .engine_name = best_engine->name(),
          .best_ms = best_ms,
          .baseline_ms = baseline_ms,
          .measured = true};
}

std::vector<EngineTiming> Autotuner::measure_all(const ConvConfig& cfg,
                                                 Pass pass, Dtype dtype) {
  std::lock_guard lock(mutex_);
  Workload work(cfg);
  std::vector<EngineTiming> timings;
  for (const auto& entry : conv::registry()) {
    if (!in_pool(entry, pass, dtype)) continue;
    EngineTiming t{.engine_name = entry.name()};
    if (entry.engine.supports(cfg)) {
      t.eligible = true;
      t.ms = time_engine(work, entry.engine, cfg, pass, trials_, kNoPrune,
                         ms_spent_);
    }
    timings.push_back(t);
  }
  ms_spent_gauge().set(ms_spent_);
  return timings;
}

bool Autotuner::save_cache(const std::string& path) {
  std::lock_guard lock(mutex_);
  cache_path_ = path;
  cache_loaded_ = true;  // what we are about to write is the cache
  return persist_locked();
}

obs::Json Autotuner::cache_json_locked() const {
  obs::Json root = obs::Json::object();
  root.set("tune_cache_version", obs::Json(kCacheVersion));
  root.set("simd", obs::Json(simd::name(simd::active())));
  root.set("threads", obs::Json(active_threads()));
  root.set("engines", obs::Json(engine_set_string()));
  obs::Json entries = obs::Json::array();
  for (const auto& [key, decision] : memo_) {
    if (!decision.measured) continue;  // heuristic picks are free to redo
    const ConvConfig cfg{key[0], key[1], key[2], key[3],
                         key[4], key[5], key[6], key[7]};
    const auto pass = static_cast<Pass>(key[8]);
    const auto dtype = static_cast<Dtype>(key[9]);
    obs::Json entry = obs::Json::object();
    for (std::size_t i = 0; i < kConfigFields.size(); ++i) {
      entry.set(std::string(kConfigFields[i]), obs::Json(key[i]));
    }
    entry.set("pass", obs::Json(std::string(to_string(pass))));
    entry.set("dtype", obs::Json(std::string(to_string(dtype))));
    entry.set("hash", obs::Json(hash_hex(key_hash(cfg, pass, dtype))));
    entry.set("engine", obs::Json(std::string(decision.engine_name)));
    entry.set("best_ms", obs::Json(decision.best_ms));
    entry.set("baseline_ms", obs::Json(decision.baseline_ms));
    entries.push(std::move(entry));
  }
  root.set("entries", std::move(entries));
  return root;
}

std::size_t Autotuner::load_cache(const std::string& path) {
  std::lock_guard lock(mutex_);
  cache_path_ = path;
  return load_cache_locked();
}

std::size_t Autotuner::load_cache_locked() {
  cache_loaded_ = true;  // one attempt per path, hit or miss
  std::ifstream in(cache_path_);
  if (!in) return 0;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = obs::parse_json(buf.str());
  if (!parsed) return 0;
  const obs::Json& root = *parsed;
  // Whole-file key: version, SIMD level and thread count must all match
  // this process, otherwise every timing in the file is suspect.
  if (size_field(root, "tune_cache_version") != kCacheVersion) return 0;
  if (string_or(root, "simd") != simd::name(simd::active())) return 0;
  if (size_field(root, "threads") != active_threads()) return 0;
  // The engine set must match the running binary: a cache written by a
  // binary with fewer (or different) engines never compared against the
  // ones this binary ships, so its winners are not trustworthy.
  if (string_or(root, "engines") != engine_set_string()) return 0;
  const obs::Json* entries = root.find("entries");
  if (entries == nullptr || entries->type() != obs::Json::Type::kArray) {
    return 0;
  }
  std::size_t kept = 0;
  for (const obs::Json& entry : entries->items()) {
    if (entry.type() != obs::Json::Type::kObject) continue;
    std::array<std::size_t, 8> fields{};
    bool fields_ok = true;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const auto field = size_field(entry, kConfigFields[i]);
      fields_ok = fields_ok && field.has_value();
      fields[i] = field.value_or(0);
    }
    if (!fields_ok) continue;
    const ConvConfig cfg{fields[0], fields[1], fields[2], fields[3],
                         fields[4], fields[5], fields[6], fields[7]};
    const auto pass = from_name(
        string_or(entry, "pass"),
        {Pass::kForward, Pass::kBackwardData, Pass::kBackwardFilter});
    if (!pass) continue;
    const auto dtype =
        from_name(string_or(entry, "dtype"), {Dtype::kF32, Dtype::kInt8});
    if (!dtype) continue;
    // Per-entry key check: recompute the hash from the stored fields; a
    // mismatch means the entry was edited or the key schema changed.
    if (string_or(entry, "hash") != hash_hex(key_hash(cfg, *pass, *dtype))) {
      continue;
    }
    // The engine must be one that could have won this key's search.
    const conv::EngineEntry* found =
        conv::find_engine(string_or(entry, "engine"));
    if (found == nullptr || !in_pool(*found, *pass, *dtype) ||
        !found->engine.supports(cfg)) {
      continue;
    }
    memo_[make_key(cfg, *pass, *dtype)] =
        Decision{.engine = &found->engine,
                 .engine_name = found->name(),
                 .best_ms = number_or(entry, "best_ms", 0.0),
                 .baseline_ms = number_or(entry, "baseline_ms", 0.0),
                 .measured = true};
    ++kept;
  }
  return kept;
}

bool Autotuner::persist_locked() {
  if (cache_path_.empty()) return false;
  std::ofstream out(cache_path_);
  if (!out) return false;
  out << cache_json_locked().dump_string(2) << '\n';
  return out.good();
}

std::string Autotuner::set_cache_path(std::string path) {
  std::lock_guard lock(mutex_);
  std::string previous = std::move(cache_path_);
  cache_path_ = std::move(path);
  cache_loaded_ = cache_path_.empty();  // a new path loads on first use
  return previous;
}

std::vector<Autotuner::Entry> Autotuner::entries() {
  std::lock_guard lock(mutex_);
  std::vector<Entry> out;
  out.reserve(memo_.size());
  for (const auto& [key, decision] : memo_) {
    out.push_back({ConvConfig{key[0], key[1], key[2], key[3], key[4],
                              key[5], key[6], key[7]},
                   static_cast<Pass>(key[8]), static_cast<Dtype>(key[9]),
                   decision});
  }
  return out;
}

void Autotuner::clear() {
  std::lock_guard lock(mutex_);
  memo_.clear();
}

std::size_t Autotuner::size() {
  std::lock_guard lock(mutex_);
  return memo_.size();
}

int Autotuner::set_trials_for_testing(int trials) {
  std::lock_guard lock(mutex_);
  const int previous = trials_;
  trials_ = std::max(trials, 0);
  return previous;
}

std::vector<const conv::ConvEngine*> search_order(const ConvConfig& cfg,
                                                  Pass pass, Dtype dtype) {
  std::vector<const conv::EngineEntry*> order;
  const auto push = [&order](const conv::EngineEntry* entry) {
    if (std::find(order.begin(), order.end(), entry) == order.end()) {
      order.push_back(entry);
    }
  };
  const auto push_named = [&push](std::string_view name) {
    push(conv::find_engine(name));
  };

  // Int8 callers: the quantized engines lead the search — they are the
  // likely winners, so measuring them first arms the prune check before
  // the slower fp32 candidates run.
  for (const auto& entry : conv::registry()) {
    if (entry.dtype == Dtype::kInt8) push(&entry);
  }

  // Depthwise-degenerate shapes: the specialised engine is the likely
  // winner (no im2col traffic, no wasted reduction), so it leads the
  // search.
  if (cfg.groups == cfg.channels && cfg.groups > 1) push_named("depthwise");

  // Zoo-dominant 3x3/stride-1 shapes: the scattered-GEMM Winograd
  // engines win once the GEMMs are deep and wide enough to amortise the
  // transforms — measured ≥2x over im2col GEMM at C,F ≥ 64 on 28²+
  // feature maps. F(4x4,3x3) (4x multiply reduction) leads F(2x2,3x3).
  // The size gate keeps small shapes (LeNet, fuzzer degenerates) on the
  // general-purpose order below.
  if (cfg.kernel == 3 && cfg.stride == 1 && cfg.groups == 1 &&
      cfg.pad <= 2 && cfg.channels >= 64 && cfg.filters >= 64 &&
      cfg.input >= 28) {
    push_named("winograd-f4");
    push_named("winograd");
  }

  // The general-purpose engines in a fixed order: im2col + GEMM (the
  // static default) first, then FFT and direct. The order decides the
  // heuristic pick and which measured candidates the prune check can
  // cut short; a measurement still runs every eligible engine once.
  for (const std::string_view name : {"unrolling", "fft", "direct"}) {
    push_named(name);
  }
  // Everything else appends in pool order.
  for (const auto& entry : conv::registry()) push(&entry);

  std::vector<const conv::ConvEngine*> eligible;
  for (const conv::EngineEntry* entry : order) {
    if (in_pool(*entry, pass, dtype) && entry->engine.supports(cfg)) {
      eligible.push_back(&entry->engine);
    }
  }
  return eligible;
}

const conv::ConvEngine& default_engine() {
  static const conv::ConvEngine& unrolling = conv::engine("unrolling");
  return unrolling;
}

}  // namespace gpucnn::tune
