//===- perfbench/perfbench.cpp - End-to-end CoStar benchmark program ------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one workload for one seed and prints one JSON line.
/// Every layer is measured from outside: the benchmark times its calls into
/// the public entry points (Language::lex, Parser::parse,
/// VerilogLinter::lint, ParseService::submit, snapshot::loadSnapshot) and
/// reads the stats and reports those calls return.
///
///   costar_perfbench --workload cold-python|warm-verilint|service-skewed
///                    --seed N --seconds S --trace 0|1 --root DIR
///                    --work DIR [--rate RPS --deadline-ms MS
///                    --p99-limit-ms MS]
///
/// Workloads:
///   cold-python     one thread, one Parser with default ParseOptions, so
///                   every file gets a fresh SLL cache (the paper's
///                   configuration). Per file: lex, parse, release.
///   warm-verilint   one thread, a Parser warm-started from a snapshot
///                   trained on the measured corpus (in a child process,
///                   outside every timed region). Per file: lex, parse,
///                   lint, release.
///   service-skewed  ParseService with nproc-1 workers and one open-loop
///                   generator thread (this one): seeded Poisson arrivals
///                   over a {python, json, dot, verilog} mix whose python
///                   requests carry most of the tokens,
///                   each grammar warm-started from a snapshot trained on
///                   a different seed.
///
/// With --trace 0 the line carries the end-to-end metrics, their times
/// scaled to a reference host speed (HostSpeed); with --trace 1 the
/// per-layer metrics, taken from a separate run that records a span
/// around every layer call and writes the spans to --work when it ends.
///
/// Correctness: every accepted tree (of the service's rate probes, every
/// 8th) is digested outside the timed regions and compared with the tree
/// of the independent ATN engine (atn::AtnParser, cache kept across
/// files), which runs after the measurement so it adds nothing to peak
/// RSS. warm-verilint also lints
/// examples/verilog/bad/lint_errors.v and compares the SARIF with the
/// committed golden file. Any mismatch counts as a failed operation, and
/// the process then exits 1 after printing its line.
///
//===----------------------------------------------------------------------===//

#include "analysis/Render.h"
#include "atn/AtnParser.h"
#include "core/Parser.h"
#include "lang/Language.h"
#include "semantic/VerilogLint.h"
#include "service/Service.h"
#include "snapshot/Snapshot.h"
#include "workload/Generators.h"

#include <pthread.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace costar;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

const Clock::time_point ProcessStart = Clock::now();

/// Spin-wait hint: lets a sibling hardware thread of the same core run
/// while this one polls the clock.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Progress line on stderr (stdout carries only the result line).
void note(const char *What) {
  std::fprintf(stderr, "[%7.2fs] %s\n",
               secondsBetween(ProcessStart, Clock::now()), What);
}

//===----------------------------------------------------------------------===//
// Arguments
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";
  std::string Work = ".";
  double RateRps = 0;
  double DeadlineMs = 0;
  double P99LimitMs = 0;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: costar_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --root DIR --work DIR [--rate RPS "
               "--deadline-ms MS --p99-limit-ms MS]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + K).c_str());
    std::string V = argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--root")
      A.Root = V;
    else if (K == "--work")
      A.Work = V;
    else if (K == "--rate")
      A.RateRps = std::atof(V.c_str());
    else if (K == "--deadline-ms")
      A.DeadlineMs = std::atof(V.c_str());
    else if (K == "--p99-limit-ms")
      A.P99LimitMs = std::atof(V.c_str());
    else
      usage(("unknown option " + K).c_str());
  }
  if (A.Seconds <= 0)
    usage("--seconds must be positive");
  return A;
}

/// Shape of one generated corpus or request pool.
struct CorpusShape {
  uint32_t Files, MinTokens, MaxTokens;
};

// Fixed inputs of each workload; --seed picks the files, these their
// number and sizes. cold-python has >= 10 files beyond its p90.
constexpr CorpusShape ColdPythonCorpus{320, 50, 320};
constexpr CorpusShape WarmVerilintCorpus{400, 50, 750};
// service-skewed: the Python pool carries most of the tokens.
constexpr CorpusShape ServicePythonPool{64, 100, 1200};
constexpr CorpusShape ServiceCheapPool{48, 30, 300};

// Set-ups per run; setup_s is their median. A cold-python set-up takes
// milliseconds, the snapshot loads of the others over a second. The
// pipelines spread theirs over the measurement, the service does its
// set-ups before it starts.
constexpr unsigned ColdPythonSetupReps = 41;
constexpr unsigned SnapshotSetupReps = 3;

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile of \p V (copied; 0 when empty).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double peakRssMb() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// The host's speed, from a fixed loop that belongs to the benchmark.
///
/// A shared VM's speed drifts by 30-50% within minutes, and a benchmark
/// run sees whatever speed its minute has. The loop runs in short slices
/// spread through the measurement, between the timed intervals, and every
/// end-to-end time is scaled by RefSliceS / (the run's median slice time):
/// the time the run would have taken at the speed the host had when
/// RefSliceS was taken. The loop is compute-bound and branchy on an
/// L1-resident table, with no allocation, so nothing the program under
/// test does changes its speed; on a 4-vCPU Xeon VM its time tracked that
/// of cold Python parsing within ~4% while both drifted by 30%.
class HostSpeed {
public:
  /// A typical median slice time on a 4-vCPU Xeon VM (frozen; never
  /// re-derived from the build under test).
  static constexpr double RefSliceS = 200e-6;
  static constexpr unsigned SliceIters = 20000;
  /// Slices are taken at most this often.
  static constexpr std::chrono::milliseconds Every{10};

  HostSpeed() {
    for (unsigned I = 0; I < sizeof(Table); ++I)
      Table[I] = static_cast<uint8_t>(I * 37);
  }

  /// Runs one slice if Every has passed since the last one.
  void maybeSample() {
    if (Clock::now() - Last < Every)
      return;
    Clock::time_point T0 = Clock::now();
    uint64_t X = 0x9E3779B97F4A7C15ull + Slices.size(), Acc = 0;
    for (unsigned I = 0; I < SliceIters; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      if (X & 1)
        Acc += Table[X & 4095];
      else if (X & 2)
        Acc ^= X >> 3;
      else
        Acc -= Table[(X >> 8) & 4095] * 3u;
    }
    Sink = Acc;
    Last = Clock::now();
    Slices.push_back(secondsBetween(T0, Last));
  }

  double medianSliceS() const { return median(Slices); }
  /// Raw time x scale() = time at the reference speed (1 without slices).
  double scale() const {
    return Slices.empty() ? 1.0 : RefSliceS / medianSliceS();
  }

private:
  uint8_t Table[4096];
  std::vector<double> Slices;
  Clock::time_point Last{};
  static inline volatile uint64_t Sink = 0;
};

/// The result line: metrics in insertion order, each with its unit.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Mismatches = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {std::isfinite(Value) ? Value : 0.0, Unit}});
  }
  /// An operation that did not complete: refused, shed, expired, over
  /// budget, or an output that differs from its reference.
  void fail(const char *What, uint64_t Id) {
    ++Failed;
    if (Failed <= 10)
      std::fprintf(stderr, "failure: %s (operation %llu)\n", What,
                   static_cast<unsigned long long>(Id));
  }
  /// An output that differs from its reference: the run is not correct.
  void mismatch(const char *What, uint64_t Id) {
    ++Mismatches;
    fail(What, Id);
  }
  bool correct() const { return Mismatches == 0 && Attempted > 0; }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (size_t I = 0; I < Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].first.c_str(),
                  Metrics[I].second.first, Metrics[I].second.second.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// Every per-layer metric of the traced run, in output order, with its
/// unit. A workload that does not exercise a layer reports 0 for it.
constexpr std::pair<const char *, const char *> LayerMetrics[] = {
    {"lang.build_s", "s"},
    {"snapshot.load_s", "s"},
    {"snapshot.bytes", "B"},
    {"snapshot.states", "count"},
    {"lexer.busy_s", "s"},
    {"lexer.mb_per_s", "MB/s"},
    {"core.busy_s", "s"},
    {"core.steps", "count"},
    {"core.predictions", "count"},
    {"core.sll_predictions", "count"},
    {"core.ll_failovers", "count"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.states_added", "count"},
    {"core.us_per_state_added", "us"},
    {"core.alloc_nodes", "count"},
    {"core.alloc_bytes", "B"},
    {"grammar.release_s", "s"},
    {"semantic.busy_s", "s"},
    {"semantic.findings", "count"},
    {"service.submit_us_p99", "us"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.exec_ms_p50", "ms"},
    {"service.exec_ms_p99", "ms"},
    {"service.rejected.queue_full", "count"},
    {"service.rejected.deadline", "count"},
    {"service.shed", "count"},
    {"service.expired", "count"},
    {"service.steals", "count"},
    {"service.steal_fails", "count"},
    {"service.retries", "count"},
    {"service.downgrades", "count"},
    {"service.respawns", "count"},
    {"service.latency_p99_ms", "ms"},
    {"gen.late_ms_p99", "ms"},
    {"unattributed_s", "s"},
    {"trace.coverage", "ratio"},
    {"core.share", "ratio"},
    {"lexer.share", "ratio"},
    {"semantic.share", "ratio"},
    {"grammar.release_share", "ratio"},
    {"trace.overhead_tokens_per_s", "tok/s"},
    {"trace.overhead_req_p50_ms", "ms"},
    {"trace.spans", "count"},
    {"host.slice_us", "us"},
};

/// Per-layer values by name; print() emits every LayerMetrics entry.
struct Layers : std::map<std::string, double> {
  /// The core.* metrics from accumulated Machine::Stats over \p Passes
  /// passes that spent \p BusyS seconds (per pass) in the parser.
  void addCore(const Machine::Stats &C, double Passes, double BusyS) {
    auto &L = *this;
    double Hits = double(C.CacheHits), Misses = double(C.CacheMisses),
           Added = double(C.CacheStatesAdded);
    L["core.busy_s"] = BusyS;
    L["core.steps"] = double(C.Steps) / Passes;
    L["core.predictions"] = double(C.Pred.Predictions) / Passes;
    L["core.sll_predictions"] = double(C.Pred.SllPredictions) / Passes;
    L["core.ll_failovers"] = double(C.Pred.Failovers) / Passes;
    L["core.cache_hits"] = Hits / Passes;
    L["core.cache_misses"] = Misses / Passes;
    L["core.cache_hit_ratio"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
    L["core.states_added"] = Added / Passes;
    L["core.us_per_state_added"] =
        Added > 0 ? BusyS * 1e6 / (Added / Passes) : 0;
    L["core.alloc_nodes"] = double(C.AllocNodes) / Passes;
    L["core.alloc_bytes"] = double(C.AllocBytes) / Passes;
  }

  void print(Result &Res) {
    for (const auto &[Name, Unit] : LayerMetrics)
      Res.add(Name, (*this)[Name], Unit);
    Res.print();
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log for the traced run: one record per layer call,
/// written out as JSON lines when the run ends.
class SpanLog {
public:
  struct Span {
    const char *Name;
    uint32_t Parent; ///< index + 1 of the enclosing span, 0 at the root
    uint64_t Id;     ///< file or request id shared by one operation's spans
    Clock::time_point Begin, End;
    uint64_t Count; ///< work done inside the span (tokens, steps, ...)
  };

  uint32_t add(const char *Name, uint32_t Parent, uint64_t Id,
               Clock::time_point Begin, Clock::time_point End,
               uint64_t Count = 0) {
    Spans.push_back(Span{Name, Parent, Id, Begin, End, Count});
    return static_cast<uint32_t>(Spans.size());
  }

  /// Self time per span name: duration minus the part its children cover.
  std::map<std::string, double> selfSeconds() const {
    std::vector<double> Child(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent)
        Child[S.Parent - 1] += secondsBetween(S.Begin, S.End);
    std::map<std::string, double> Self;
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[Spans[I].Name] +=
          secondsBetween(Spans[I].Begin, Spans[I].End) - Child[I];
    return Self;
  }

  void write(const std::string &Path, Clock::time_point Origin) const {
    std::ofstream Out(Path, std::ios::trunc);
    auto Ns = [&](Clock::time_point T) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
              .count());
    };
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << "{\"span\": " << I + 1 << ", \"name\": \"" << S.Name
          << "\", \"parent\": " << S.Parent << ", \"id\": " << S.Id
          << ", \"start_ns\": " << Ns(S.Begin) << ", \"end_ns\": "
          << Ns(S.End) << ", \"count\": " << S.Count << "}\n";
    }
  }

  size_t size() const { return Spans.size(); }

private:
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Inputs and the reference check
//===----------------------------------------------------------------------===//

uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Order-sensitive structural digest of a parse tree: preorder over node
/// kinds, nonterminals, child counts, terminals and lexemes.
uint64_t treeDigest(const Tree &Root) {
  uint64_t H = 0xC057A5ull;
  std::vector<const Tree *> Stack{&Root};
  while (!Stack.empty()) {
    const Tree *T = Stack.back();
    Stack.pop_back();
    if (T->isLeaf()) {
      H = mix64(H ^ (1ull << 40 | T->token().Term));
      for (unsigned char C : T->token().Lexeme)
        H = mix64(H ^ C);
    } else {
      const Forest &Kids = T->children();
      H = mix64(H ^ (2ull << 40 | uint64_t(T->nonterminal()) << 16 |
                     Kids.size()));
      for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
        Stack.push_back(It->get());
    }
  }
  return H;
}

/// Seeded source files of one language; the program under test only ever
/// sees these bytes (and the tokens its own lexer makes from them).
std::vector<std::string> makeSources(lang::LangId Lang, uint64_t Seed,
                                     CorpusShape Shape) {
  workload::Corpus C = workload::generateCorpus(
      Lang, mix64(Seed ^ (uint64_t(Lang) + 1) * 0x51EDull), Shape.Files,
      Shape.MinTokens, Shape.MaxTokens);
  // generateCorpus orders files by size; shuffle so size does not track
  // position in a pass.
  std::mt19937_64 Rng(mix64(Seed + 77));
  std::shuffle(C.Files.begin(), C.Files.end(), Rng);
  return std::move(C.Files);
}

/// Lexes \p Sources outside any timed region (for the reference check,
/// snapshot training and the service's request pools).
std::vector<Word> lexAll(const lang::Language &L,
                         const std::vector<std::string> &Sources) {
  std::vector<Word> Words;
  for (const std::string &S : Sources) {
    lexer::LexResult R = L.lex(S);
    Words.push_back(R.ok() ? std::move(R.Tokens) : Word{});
  }
  return Words;
}

/// ATN-engine digests of \p Words (0 where the reference rejects).
std::vector<uint64_t> referenceDigests(const lang::Language &L,
                                       const std::vector<Word> &Words) {
  atn::AtnParser Ref(L.G, L.Start);
  std::vector<uint64_t> Out;
  for (const Word &W : Words) {
    ParseResult R = Ref.parse(W);
    Out.push_back(R.accepted() ? treeDigest(*R.tree()) : 0);
  }
  return Out;
}

/// Trains a warm SLL cache on \p Sources (one ReuseCache parser, one pass)
/// and writes it as a snapshot file. Runs in a child process so neither
/// its time nor its memory lands in the measured process.
bool trainSnapshotsInChild(
    const std::vector<std::pair<lang::LangId, std::vector<std::string>>> &Sets,
    const std::vector<std::string> &Paths) {
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    // Die with the parent, so a killed run leaves no trainer behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1)
      _exit(1);
    int Code = 0;
    for (size_t I = 0; I < Sets.size(); ++I) {
      lang::Language L = lang::makeLanguage(Sets[I].first);
      ParseOptions Opts;
      Opts.ReuseCache = true;
      Parser P(L.G, L.Start, Opts);
      for (const Word &W : lexAll(L, Sets[I].second))
        P.parse(W);
      if (snapshot::saveSnapshot(Paths[I], L.G, &P.sharedCache(), {}))
        Code = 1;
    }
    std::fflush(stderr);
    _exit(Code);
  }
  int Status = 0;
  if (waitpid(Pid, &Status, 0) != Pid)
    return false;
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

//===----------------------------------------------------------------------===//
// Single-thread file pipelines: cold-python and warm-verilint
//===----------------------------------------------------------------------===//

struct PipelineSetup {
  std::unique_ptr<lang::Language> L;
  std::unique_ptr<Parser> P;
  std::unique_ptr<semantic::VerilogLinter> Linter;
  uint64_t SnapshotBytes = 0;
  uint64_t SnapshotStates = 0;
};

/// Per-pass totals of one timed pass.
struct PassStats {
  double WallS = 0; ///< pass wall time minus the untimed digest intervals
  uint64_t Tokens = 0;
  uint64_t Bytes = 0;
  uint64_t Findings = 0;
  Machine::Stats Core; ///< traced passes only
};

/// Runs the cold-python or warm-verilint workload.
int runPipeline(const Args &A, bool Verilint) {
  Clock::time_point Origin = Clock::now();
  Result Res;
  const lang::LangId Lang =
      Verilint ? lang::LangId::Verilog : lang::LangId::Python;
  std::vector<std::string> Sources = makeSources(
      Lang, A.Seed, Verilint ? WarmVerilintCorpus : ColdPythonCorpus);
  note("corpus generated");
  std::string SnapPath = A.Work + "/verilog.snap";
  if (Verilint &&
      !trainSnapshotsInChild({{Lang, Sources}}, std::vector{SnapPath})) {
    std::fprintf(stderr, "error: snapshot training failed\n");
    return 1;
  }

  note("snapshot trained");
  // Set-up, repeated through the run: setup_s is the median of SetupReps
  // set-ups spread evenly over the measurement, so it samples the host's
  // speed across the run, not only in the instant before it. Each set-up
  // replaces the previous one; the files after it use the new one.
  std::vector<double> SetupS, LangS, LoadS;
  PipelineSetup S;
  const unsigned SetupReps =
      Verilint ? SnapshotSetupReps : ColdPythonSetupReps;
  auto setUp = [&]() {
    // Tear down in dependency order: the parser and linter borrow the
    // language's grammar.
    S.Linter.reset();
    S.P.reset();
    S.L.reset();
    Clock::time_point T0 = Clock::now();
    S.L = std::make_unique<lang::Language>(lang::makeLanguage(Lang));
    Clock::time_point T1 = Clock::now();
    ParseOptions Opts;
    Opts.ReuseCache = Verilint;
    S.P = std::make_unique<Parser>(S.L->G, S.L->Start, Opts);
    Clock::time_point T2 = Clock::now(), T3 = T2;
    if (Verilint) {
      snapshot::LoadResult Snap =
          snapshot::loadSnapshot(SnapPath, S.L->G, CacheBackend::Hashed);
      if (!Snap.ok() || !Snap.Contents.Cache ||
          !S.P->warmStart(*Snap.Contents.Cache))
        return false;
      T3 = Clock::now();
      S.SnapshotStates = Snap.Contents.Cache->numStates();
      S.Linter = std::make_unique<semantic::VerilogLinter>(S.L->G);
    }
    Clock::time_point T4 = Clock::now();
    SetupS.push_back(secondsBetween(T0, T4));
    LangS.push_back(secondsBetween(T0, T1));
    LoadS.push_back(secondsBetween(T2, T3));
    return true;
  };
  if (!setUp()) {
    std::fprintf(stderr, "error: snapshot load failed\n");
    return 1;
  }
  if (Verilint) {
    std::ifstream F(SnapPath, std::ios::binary | std::ios::ate);
    S.SnapshotBytes = static_cast<uint64_t>(F.tellg());
  }

  note("set up");
  // Timed passes. Digests are taken between lint and release, outside
  // the timed intervals, and checked against pass 1 and the reference.
  const size_t N = Sources.size();
  std::vector<uint64_t> Digests(N, 0);
  std::vector<std::vector<double>> FileMs(N);
  std::vector<PassStats> Plain, Traced;
  SpanLog Spans;
  HostSpeed Speed; // sampled between files, outside the timed intervals
  uint64_t FindingsFirstPass = 0;
  const Clock::duration Budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(A.Seconds));
  Clock::time_point End = Clock::now() + Budget;
  // Runs the set-ups due by now: set-up K of SetupReps is due once K /
  // SetupReps of the measurement has passed. Their time counts in no pass
  // and moves End out by as much. Returns that time (nullopt on failure).
  auto setUpsDue = [&]() -> std::optional<double> {
    const double Share =
        1 - std::chrono::duration<double>(End - Clock::now()) /
                std::chrono::duration<double>(Budget);
    const size_t Due = std::min<size_t>(
        SetupReps, 1 + static_cast<size_t>(Share * SetupReps));
    if (SetupS.size() >= Due)
      return 0.0;
    Clock::time_point T0 = Clock::now();
    while (SetupS.size() < Due)
      if (!setUp())
        return std::nullopt;
    const Clock::duration Spent = Clock::now() - T0;
    End += Spent;
    return std::chrono::duration<double>(Spent).count();
  };
  // The traced run alternates untraced and traced passes, so the tracing
  // overhead is measured interleaved.
  // A new pass starts only while at least half a pass fits before End;
  // the traced run needs one untraced and one traced pass at least.
  const size_t MinPasses = A.Trace ? 2 : 1;
  double LastPassS = 0;
  for (size_t Pass = 0;
       Pass < MinPasses ||
       secondsBetween(Clock::now(), End) >= 0.5 * LastPassS;
       ++Pass) {
    const bool Tracing = A.Trace && Pass % 2 == 1;
    PassStats PS;
    double Untimed = 0;
    Clock::time_point PassBegin = Clock::now();
    for (size_t I = 0; I < N; ++I) {
      const std::optional<double> SetUpS = setUpsDue();
      if (!SetUpS) {
        std::fprintf(stderr, "error: snapshot load failed\n");
        return 1;
      }
      Untimed += *SetUpS;
      const uint64_t Op = Pass * N + I;
      ++Res.Attempted;
      Machine::Stats St;
      Clock::time_point T0 = Clock::now();
      lexer::LexResult Lex = S.L->lex(Sources[I]);
      Clock::time_point T1 = Clock::now();
      ParseResult R = S.P->parse(Lex.Tokens, Tracing ? &St : nullptr);
      Clock::time_point T2 = Clock::now();
      size_t NumFindings = 0;
      if (S.Linter && R.accepted()) {
        analysis::AnalysisReport Rep = S.Linter->lint(R.tree());
        NumFindings = Rep.Diags.size();
      }
      Clock::time_point T3 = Clock::now();
      // Untimed: correctness of this file's outputs.
      if (!Lex.ok() || !R.accepted()) {
        Res.mismatch(Lex.ok() ? "parse did not accept" : "lex failed", Op);
      } else {
        uint64_t D = treeDigest(*R.tree());
        if (Pass == 0)
          Digests[I] = D;
        else if (D != Digests[I])
          Res.mismatch("tree differs from the first pass", Op);
      }
      PS.Findings += NumFindings;
      const uint64_t Tokens = Lex.Tokens.size();
      Speed.maybeSample();
      Clock::time_point T4 = Clock::now();
      {
        ParseResult Drop = std::move(R);
        lexer::LexResult DropLex = std::move(Lex);
      }
      Clock::time_point T5 = Clock::now();
      Untimed += secondsBetween(T3, T4);
      FileMs[I].push_back(
          (secondsBetween(T0, T3) + secondsBetween(T4, T5)) * 1e3);
      PS.Tokens += Tokens;
      PS.Bytes += Sources[I].size();
      if (Tracing) {
        uint32_t File = Spans.add("file", 0, Op, T0, T5);
        Spans.add("lexer", File, Op, T0, T1, Tokens);
        Spans.add("core", File, Op, T1, T2, St.Steps);
        if (S.Linter)
          Spans.add("semantic", File, Op, T2, T3, NumFindings);
        Spans.add("check", File, Op, T3, T4);
        Spans.add("grammar.release", File, Op, T4, T5);
        PS.Core.accumulate(St);
      }
    }
    LastPassS = secondsBetween(PassBegin, Clock::now());
    PS.WallS = LastPassS - Untimed;
    if (Pass == 0)
      FindingsFirstPass = PS.Findings;
    else if (PS.Findings != FindingsFirstPass)
      Res.mismatch("lint findings differ from the first pass", Pass);
    std::fprintf(stderr, "pass %zu%s: %.0f tok/s\n", Pass,
                 Tracing ? " (traced)" : "", PS.Tokens / PS.WallS);
    (Tracing ? Traced : Plain).push_back(PS);
  }
  const double RssMb = peakRssMb();
  note("measured");

  // Reference check (after the measurement and the RSS reading).
  std::vector<uint64_t> Ref =
      referenceDigests(*S.L, lexAll(*S.L, Sources));
  for (size_t I = 0; I < N; ++I)
    if (Digests[I] != 0 && Digests[I] != Ref[I])
      Res.mismatch("tree differs from the ATN reference", I);
  note("reference checked");
  if (Verilint) {
    // Golden SARIF of the committed faulty example, linted through the
    // same warm parser and linter.
    ++Res.Attempted;
    std::ifstream Src(A.Root + "/examples/verilog/bad/lint_errors.v");
    std::ifstream Gold(A.Root + "/examples/verilog/golden/lint_errors.sarif");
    std::stringstream SrcText, GoldText;
    SrcText << Src.rdbuf();
    GoldText << Gold.rdbuf();
    lexer::LexResult Lex = S.L->lex(SrcText.str());
    ParseResult R = S.P->parse(Lex.Tokens);
    std::string Sarif;
    if (Src && Gold && Lex.ok() && R.accepted()) {
      analysis::AnalysisReport Rep = S.Linter->lint(R.tree());
      analysis::AnalyzedFile F{"verilog/bad/lint_errors.v", &S.L->G, &Rep};
      Sarif = analysis::renderSarif(std::span(&F, 1), "costar-verilint");
    }
    if (Sarif.empty() || Sarif != GoldText.str())
      Res.mismatch("lint_errors.v SARIF differs from the golden file", 0);
  }

  auto Med = [](const std::vector<PassStats> &V, auto Field) {
    std::vector<double> X;
    for (const PassStats &P : V)
      X.push_back(Field(P));
    return median(X);
  };
  auto TokPerS = [](const PassStats &P) { return P.Tokens / P.WallS; };
  auto FilesPerS = [N](const PassStats &P) { return N / P.WallS; };

  // End-to-end times at the reference host speed (HostSpeed).
  const double Scale = Speed.scale();
  std::fprintf(stderr, "host: median slice %.1f us, scale %.4f\n",
               Speed.medianSliceS() * 1e6, Scale);
  if (!A.Trace) {
    std::vector<double> PerFile;
    for (const std::vector<double> &Ms : FileMs)
      PerFile.push_back(median(Ms));
    Res.add("setup_s", median(SetupS) * Scale, "s");
    Res.add("tokens_per_s", Med(Plain, TokPerS) / Scale, "tok/s");
    Res.add("latency_p50_ms", quantile(PerFile, 0.50) * Scale, "ms");
    Res.add("latency_tail_ms", quantile(PerFile, 0.90) * Scale, "ms");
    Res.add("max_rate_rps", Med(Plain, FilesPerS) / Scale, "1/s");
    Res.add("peak_rss_mb", RssMb, "MB");
    Res.print();
    return Res.correct() ? 0 : 1;
  }

  // Per-layer metrics from the traced passes: per-pass means (the counts
  // are identical on every pass).
  const double NT = double(Traced.size());
  auto PerPass = [&](auto Field) {
    double X = 0;
    for (const PassStats &P : Traced)
      X += double(Field(P));
    return X / NT;
  };
  std::map<std::string, double> Self = Spans.selfSeconds();
  const double Wall = PerPass([](const PassStats &P) { return P.WallS; });
  const double LexS = Self["lexer"] / NT, CoreS = Self["core"] / NT,
               LintS = Self["semantic"] / NT,
               RelS = Self["grammar.release"] / NT;
  const double Covered = LexS + CoreS + LintS + RelS;
  Layers L;
  L["lang.build_s"] = median(LangS);
  L["snapshot.load_s"] = median(LoadS);
  L["snapshot.bytes"] = double(S.SnapshotBytes);
  L["snapshot.states"] = double(S.SnapshotStates);
  L["lexer.busy_s"] = LexS;
  L["lexer.mb_per_s"] =
      PerPass([](const PassStats &P) { return P.Bytes; }) / 1e6 / LexS;
  Machine::Stats Core;
  for (const PassStats &P : Traced)
    Core.accumulate(P.Core);
  L.addCore(Core, NT, CoreS);
  L["grammar.release_s"] = RelS;
  L["semantic.busy_s"] = LintS;
  L["semantic.findings"] =
      PerPass([](const PassStats &P) { return P.Findings; });
  L["unattributed_s"] = Wall - Covered;
  L["trace.coverage"] = Covered / Wall;
  L["core.share"] = CoreS / Wall;
  L["lexer.share"] = LexS / Wall;
  L["semantic.share"] = LintS / Wall;
  L["grammar.release_share"] = RelS / Wall;
  L["trace.overhead_tokens_per_s"] =
      Med(Plain, TokPerS) - Med(Traced, TokPerS);
  L["trace.spans"] = double(Spans.size());
  L["host.slice_us"] = Speed.medianSliceS() * 1e6;
  Spans.write(A.Work + "/spans-" + A.Workload + ".jsonl", Origin);
  L.print(Res);
  return Res.correct() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// service-skewed: ParseService under an open loop
//===----------------------------------------------------------------------===//

/// One request of an open-loop phase, as the generator and the callback
/// saw it.
struct ReqRecord {
  uint32_t Grammar = 0;
  uint32_t File = 0;
  Clock::time_point Due, SubmitBegin, SubmitEnd, DoneAt;
  service::ResponseStatus Status = service::ResponseStatus::Rejected;
  const char *Refusal = "";
  bool FrontDoor = false; ///< refused inside submit(), never queued
  uint32_t InFlight = 0;  ///< requests in flight when this one arrived
  ParseResult::Kind Kind = ParseResult::Kind::Error;
  bool Accepted = false;
  bool Digested = false; ///< Digest holds the tree's digest
  bool Downgraded = false;
  uint32_t Retries = 0;
  uint64_t Digest = 0;
  uint64_t QueueWaitUs = 0;
  uint64_t LatencyUs = 0;
  uint64_t Tokens = 0;
  Machine::Stats Stats;
};

/// What one open-loop phase measured.
struct PhaseOut {
  double Seconds = 0;
  Clock::time_point Start; ///< due-time origin
  std::vector<ReqRecord> Reqs;

  static bool answered(const ReqRecord &R) {
    return R.Status == service::ResponseStatus::Done && R.Accepted;
  }

  /// Requests grouped by due time into whole windows of \p WindowS
  /// seconds (a partial last window is dropped).
  std::vector<std::vector<const ReqRecord *>> windows(double WindowS) const {
    std::vector<std::vector<const ReqRecord *>> W(
        std::max<size_t>(1, static_cast<size_t>(Seconds / WindowS + 1e-9)));
    for (const ReqRecord &R : Reqs) {
      size_t I = static_cast<size_t>(secondsBetween(Start, R.Due) / WindowS);
      if (I < W.size())
        W[I].push_back(&R);
    }
    return W;
  }

  /// Median over windows of \p WindowS seconds of each window's
  /// due-to-callback latency quantile \p Q in ms. A request that was not
  /// answered (refused, shed, expired, over budget) counts as missing
  /// every limit. One stalled window (a host preemption) cannot move it.
  double windowedLatencyMs(double Q, double WindowS) const {
    std::vector<double> PerWindow;
    for (const auto &Win : windows(WindowS)) {
      std::vector<double> Ms;
      for (const ReqRecord *R : Win)
        Ms.push_back(answered(*R) ? secondsBetween(R->Due, R->DoneAt) * 1e3
                                  : 1e9);
      if (!Ms.empty())
        PerWindow.push_back(quantile(Ms, Q));
    }
    return median(PerWindow);
  }

  /// Median over 1-second windows of the service's parse throughput:
  /// tokens answered per second a worker spent on them (the response's
  /// latency minus its queue wait). At a fixed offered rate, tokens per
  /// wall second would only echo the load.
  double windowedTokensPerS() const {
    std::vector<double> PerWindow;
    for (const auto &Win : windows(1.0)) {
      double Tokens = 0, ExecS = 0;
      for (const ReqRecord *R : Win)
        if (answered(*R)) {
          Tokens += double(R->Tokens);
          ExecS += double(R->LatencyUs - std::min(R->LatencyUs,
                                                  R->QueueWaitUs)) /
                   1e6;
        }
      if (ExecS > 0)
        PerWindow.push_back(Tokens / ExecS);
    }
    return median(PerWindow);
  }

  /// Due-to-callback latency quantile over the whole phase in ms; a
  /// request that was not answered counts as missing every limit.
  double latencyMs(double Q) const {
    std::vector<double> Ms;
    for (const ReqRecord &R : Reqs)
      Ms.push_back(answered(R) ? secondsBetween(R.Due, R.DoneAt) * 1e3 : 1e9);
    return quantile(Ms, Q);
  }

  /// Growth of the backlog over the phase: the median number of requests
  /// in flight at arrival in its last third minus that in its first third
  /// (medians, so a brief stall is not growth).
  double backlogGrowth() const {
    std::vector<double> InFlight;
    for (const ReqRecord &R : Reqs)
      InFlight.push_back(R.InFlight);
    const size_t Third = InFlight.size() / 3;
    if (Third == 0)
      return 0;
    return median({InFlight.end() - Third, InFlight.end()}) -
           median({InFlight.begin(), InFlight.begin() + Third});
  }

  /// Requests that were not answered, by cause (for progress lines).
  std::string failureSummary() const {
    std::map<std::string, uint64_t> ByCause;
    for (const ReqRecord &R : Reqs)
      if (!answered(R))
        ++ByCause[*R.Refusal ? R.Refusal
                             : service::responseStatusName(R.Status)];
    std::string S;
    for (const auto &[Cause, N] : ByCause)
      S += (S.empty() ? "" : ", ") + std::to_string(N) + " " + Cause;
    return S.empty() ? "none failed" : S;
  }
};

struct ServiceWorkload {
  static constexpr lang::LangId Langs[4] = {
      lang::LangId::Python, lang::LangId::Json, lang::LangId::Dot,
      lang::LangId::Verilog};
  std::vector<std::unique_ptr<lang::Language>> L;
  std::unique_ptr<service::ParseService> Svc;
  std::vector<uint32_t> Gids;
  /// Per grammar: the request pool's token streams.
  std::vector<std::vector<Word>> Pools;
  /// Sampled by the generator while it waits for a due time.
  HostSpeed Speed;
};

/// Sources of one grammar's request pool: Python's files are larger and
/// carry most of the tokens.
std::vector<std::string> poolSources(size_t G, uint64_t Seed) {
  return makeSources(ServiceWorkload::Langs[G], Seed,
                     G == 0 ? ServicePythonPool : ServiceCheapPool);
}

/// Runs one open-loop phase: Poisson arrivals at \p Rate for \p Seconds.
/// 30% of requests are python (Batch, no deadline, ~64% of the tokens),
/// 30% each json and dot and 10% verilog (Interactive, deadline
/// \p DeadlineMs after the due time). With three workers verilog shares
/// its home worker with python and json and dot have one each; their 60%
/// keeps the p50 among requests that queue behind nothing, off the edge
/// between verilog requests that waited for a python parse and those
/// that did not, where it would swing with the host's speed.
/// Each grammar's requests cycle through its pool from a seeded offset,
/// so every file carries an equal share of the load. Every \p CheckEvery-th
/// accepted tree is kept for its digest, which the generator takes between
/// arrivals; the callback drops the others on the worker, as a client
/// that is done with the result would. Above the frozen rate the generator
/// has little slack, so the rate probes check every 8th tree.
PhaseOut runPhase(ServiceWorkload &W, double Rate, double Seconds,
                  double DeadlineMs, uint64_t Seed, size_t CheckEvery = 1) {
  PhaseOut Out;
  std::mt19937_64 Rng(mix64(Seed));
  std::exponential_distribution<double> Gap(Rate);
  std::uniform_real_distribution<double> U(0, 1);
  std::vector<double> OffsetsS;
  for (double T = Gap(Rng); T < Seconds; T += Gap(Rng))
    OffsetsS.push_back(T);
  const size_t N = OffsetsS.size();
  Out.Reqs.resize(N);

  std::mutex Mu; // guards Finished
  std::vector<std::pair<size_t, TreePtr>> Finished;
  std::atomic<size_t> Unchecked{0}; // Finished.size(), readable unlocked
  std::atomic<size_t> Outstanding{0};
  auto Verify = [&](size_t Limit) {
    if (Unchecked.load(std::memory_order_relaxed) == 0)
      return;
    std::vector<std::pair<size_t, TreePtr>> Batch;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      size_t Take = std::min(Limit, Finished.size());
      Batch.assign(std::make_move_iterator(Finished.end() - Take),
                   std::make_move_iterator(Finished.end()));
      Finished.resize(Finished.size() - Take);
      Unchecked.store(Finished.size(), std::memory_order_relaxed);
    }
    for (auto &[I, T] : Batch) {
      Out.Reqs[I].Digest = treeDigest(*T);
      Out.Reqs[I].Digested = true;
    }
  };

  std::vector<size_t> Cursor;
  for (const std::vector<Word> &Pool : W.Pools)
    Cursor.push_back(Rng() % Pool.size());
  const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t I = 0; I < N; ++I) {
    ReqRecord &Rec = Out.Reqs[I];
    double Pick = U(Rng);
    Rec.Grammar = Pick < 0.3 ? 0 : Pick < 0.6 ? 1 : Pick < 0.9 ? 2 : 3;
    const std::vector<Word> &Pool = W.Pools[Rec.Grammar];
    Rec.File = static_cast<uint32_t>(Cursor[Rec.Grammar]++ % Pool.size());
    Rec.Due = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(OffsetsS[I]));
    // Wait for the due time, checking finished trees one at a time while
    // there is slack. The wait spins rather than sleeps: waking from a
    // sleep can be late by milliseconds on a VM, and the generator has a
    // CPU of its own.
    for (;;) {
      auto Left = Rec.Due - Clock::now();
      if (Left <= Clock::duration::zero())
        break;
      if (Left > std::chrono::milliseconds(1)) {
        W.Speed.maybeSample();
        Verify(1);
      } else {
        cpuRelax();
      }
    }
    service::Request R;
    R.Id = I;
    R.GrammarId = W.Gids[Rec.Grammar];
    R.Input = &Pool[Rec.File];
    Rec.Tokens = Pool[Rec.File].size();
    if (Rec.Grammar == 0) {
      R.Class = service::Priority::Batch;
    } else {
      R.Class = service::Priority::Interactive;
      R.Deadline = Rec.Due + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     DeadlineMs));
    }
    Rec.InFlight = static_cast<uint32_t>(
        Outstanding.fetch_add(1, std::memory_order_relaxed));
    Rec.SubmitBegin = Clock::now();
    service::ResponseStatus Admitted =
        W.Svc->submit(R, [&, I](service::Response &&Resp) {
          ReqRecord &Rr = Out.Reqs[I];
          Rr.DoneAt = Clock::now();
          Rr.Status = Resp.Status;
          Rr.Refusal = Resp.Refusal;
          if (Resp.Result)
            Rr.Kind = Resp.Result->kind();
          Rr.QueueWaitUs = Resp.QueueWaitMicros;
          Rr.LatencyUs = Resp.LatencyMicros;
          Rr.Retries = Resp.Retries;
          Rr.Downgraded = Resp.Downgraded;
          Rr.Stats = Resp.Stats;
          if (Resp.Result && Resp.Result->accepted()) {
            Rr.Accepted = true;
            if (I % CheckEvery == 0) {
              std::lock_guard<std::mutex> Lock(Mu);
              Finished.emplace_back(I, Resp.Result->tree());
              Unchecked.store(Finished.size(), std::memory_order_relaxed);
            }
          }
          Outstanding.fetch_sub(1, std::memory_order_release);
        });
    Rec.SubmitEnd = Clock::now();
    Rec.FrontDoor = Admitted != service::ResponseStatus::Done;
  }
  while (Outstanding.load(std::memory_order_acquire) != 0) {
    Verify(64);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Verify(SIZE_MAX);

  Out.Start = Start;
  Out.Seconds = Seconds;
  return Out;
}

/// Closed-loop warm-up: every pool file once, one request at a time, so
/// each grammar's home worker has parsed the measured inputs before the
/// open loop starts.
PhaseOut warmPools(ServiceWorkload &W) {
  PhaseOut Out;
  size_t N = 0;
  for (const std::vector<Word> &Pool : W.Pools)
    N += Pool.size();
  Out.Reqs.reserve(N);
  for (uint32_t G = 0; G < W.Pools.size(); ++G)
    for (uint32_t F = 0; F < W.Pools[G].size(); ++F) {
      ReqRecord &Rec = Out.Reqs.emplace_back();
      Rec.Grammar = G;
      Rec.File = F;
      service::Request R;
      R.Id = Out.Reqs.size() - 1;
      R.GrammarId = W.Gids[G];
      R.Input = &W.Pools[G][F];
      std::atomic<bool> Done{false};
      TreePtr Tree;
      W.Svc->submit(R, [&](service::Response &&Resp) {
        Rec.Status = Resp.Status;
        if (Resp.Result && Resp.Result->accepted())
          Tree = Resp.Result->tree();
        Done.store(true, std::memory_order_release);
      });
      while (!Done.load(std::memory_order_acquire))
        std::this_thread::yield();
      Rec.Accepted = Rec.Digested = Tree != nullptr;
      if (Tree)
        Rec.Digest = treeDigest(*Tree);
    }
  return Out;
}

// Shares of --seconds: the open-loop warm-up and the fixed phase run at
// the frozen rate; the rate search then runs RateProbes probes.
constexpr double WarmUpShare = 0.08;
constexpr double FixedShare = 0.37;
constexpr int RateProbes = 15;
constexpr double ProbeShare = 0.55 / RateProbes;
/// Rate of the first probe, in multiples of the frozen rate: near the
/// capacity the search finds on a 4-vCPU Xeon VM, so few probes go to
/// climbing there.
constexpr double FirstProbeFactor = 7;
/// Window of the probes' p99.
constexpr double ProbeWindowS = 0.2;
/// Factor between the rates of consecutive probes.
constexpr double RateStep = 1.1;

/// max_rate_rps: the highest offered rate at which a probe passes. A
/// probe passes when the median over ProbeWindowS windows of each
/// window's p99 is within the limit, with every refused, shed, expired or
/// over-budget request ranked as missing it, and its backlog did not grow
/// by more than the requests that arrive within the limit. The probes
/// form a staircase: the first runs at FirstProbeFactor times the frozen
/// rate, each next one RateStep higher after a pass and lower after a
/// miss, so the staircase settles around the rate that passes half the
/// time. Whether a probe passes varies with the host's speed from second
/// to second, so the result averages: it is the geometric mean of the
/// rates from the first probe whose verdict differs from its
/// predecessor's on, the rate a next probe would run at included. When
/// every verdict is the same it is the last rate if all passed, or the
/// last rate / RateStep if all missed.
double searchMaxRate(ServiceWorkload &W, const Args &A,
                     std::vector<PhaseOut> &Phases) {
  auto P99 = [](const PhaseOut &P) {
    return P.windowedLatencyMs(0.99, ProbeWindowS);
  };
  std::vector<double> Rates{FirstProbeFactor * A.RateRps};
  size_t From = 0; // first probe of the average; 0 until a reversal
  bool PrevPass = false;
  for (int K = 0; K < RateProbes; ++K) {
    const double Rate = Rates.back();
    PhaseOut P = runPhase(W, Rate, ProbeShare * A.Seconds, A.DeadlineMs,
                          A.Seed + 2 + K, 8);
    const bool Grew = P.backlogGrowth() > Rate * A.P99LimitMs / 1e3;
    const bool Pass = !Grew && P99(P) <= A.P99LimitMs;
    std::fprintf(stderr,
                 "probe %.1f rps: p99 %.2f ms, backlog %+.0f, %.0f tok/s, "
                 "%s%s\n",
                 Rate, P99(P), P.backlogGrowth(), P.windowedTokensPerS(),
                 P.failureSummary().c_str(), Pass ? "" : " -> miss");
    Phases.push_back(std::move(P));
    if (K > 0 && From == 0 && Pass != PrevPass)
      From = K;
    PrevPass = Pass;
    Rates.push_back(Pass ? Rate * RateStep : Rate / RateStep);
  }
  if (From == 0)
    return PrevPass ? Rates[RateProbes - 1] : Rates[RateProbes];
  double LogSum = 0;
  for (size_t I = From; I < Rates.size(); ++I)
    LogSum += std::log(Rates[I]);
  return std::exp(LogSum / double(Rates.size() - From));
}

int runService(const Args &A) {
  Clock::time_point Origin = Clock::now();
  Result Res;
  if (A.RateRps <= 0 || A.DeadlineMs <= 0 || A.P99LimitMs <= 0)
    usage("service-skewed needs --rate, --deadline-ms and --p99-limit-ms");
  // Snapshots are trained on a different seed than the measured pools, so
  // the warm-up still takes misses and publishes new states.
  const uint64_t TrainSeed = mix64(A.Seed ^ 0x7AA1Full);
  std::vector<std::pair<lang::LangId, std::vector<std::string>>> Train;
  std::vector<std::string> SnapPaths;
  for (size_t G = 0; G < 4; ++G) {
    Train.push_back({ServiceWorkload::Langs[G], poolSources(G, TrainSeed)});
    SnapPaths.push_back(A.Work + "/service-" + std::to_string(G) + ".snap");
  }
  if (!trainSnapshotsInChild(Train, SnapPaths)) {
    std::fprintf(stderr, "error: snapshot training failed\n");
    return 1;
  }
  note("snapshots trained");

  const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> SetupS, LangS, LoadS;
  uint64_t SnapStates = 0;
  ServiceWorkload W;
  for (unsigned Rep = 0; Rep < SnapshotSetupReps; ++Rep) {
    // Tear down the previous set-up; the service borrows the grammars.
    if (W.Svc)
      W.Svc->drain();
    W.Svc.reset();
    W.L.clear();
    W.Gids.clear();
    Clock::time_point T0 = Clock::now();
    for (lang::LangId Id : ServiceWorkload::Langs)
      W.L.push_back(std::make_unique<lang::Language>(lang::makeLanguage(Id)));
    Clock::time_point T1 = Clock::now();
    service::ServiceOptions Opts;
    Opts.Workers = std::max(1u, Hw - 1);
    W.Svc = std::make_unique<service::ParseService>(Opts);
    for (auto &Lang : W.L)
      W.Gids.push_back(W.Svc->addGrammar(Lang->G, Lang->Start));
    Clock::time_point T2 = Clock::now();
    SnapStates = 0;
    for (size_t G = 0; G < 4; ++G) {
      snapshot::LoadResult Snap =
          snapshot::loadSnapshot(SnapPaths[G], W.L[G]->G, CacheBackend::Hashed);
      if (!Snap.ok() || !Snap.Contents.Cache ||
          !W.Svc->warmStart(W.Gids[G], Snap.Contents.Cache)) {
        std::fprintf(stderr, "error: snapshot load failed\n");
        return 1;
      }
      SnapStates += Snap.Contents.Cache->numStates();
    }
    Clock::time_point T3 = Clock::now();
    W.Svc->start();
    Clock::time_point T4 = Clock::now();
    SetupS.push_back(secondsBetween(T0, T4));
    LangS.push_back(secondsBetween(T0, T1));
    LoadS.push_back(secondsBetween(T2, T3));
  }
  note("set up");
  // The service takes tokens: lex the measured pools outside the timing.
  for (size_t G = 0; G < 4; ++G)
    W.Pools.push_back(lexAll(*W.L[G], poolSources(G, A.Seed)));

  // The generator is the one thread beyond the workers; keep it off the
  // CPUs the workers are pinned to when there is one to spare.
  if (Hw > 1) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Hw - 1, &Set);
    pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
  }

  // Warm-up, checked but not counted: every pool file once in a closed
  // loop, then an open-loop phase at the frozen rate. The fixed phase
  // after it, at the frozen rate too, gives the latency metrics; the
  // untraced run then searches max_rate_rps, the traced run ends.
  std::vector<PhaseOut> Phases;
  Phases.push_back(warmPools(W));
  Phases.push_back(
      runPhase(W, A.RateRps, WarmUpShare * A.Seconds, A.DeadlineMs, A.Seed));
  Phases.push_back(
      runPhase(W, A.RateRps, FixedShare * A.Seconds, A.DeadlineMs, A.Seed + 1));
  const size_t FixedIdx = Phases.size() - 1;
  // Peak RSS at the frozen rate, before the probes push the service past
  // it on purpose.
  const double RssMb = peakRssMb();
  note("fixed-rate phases done");
  double MaxRate = 0;
  if (!A.Trace) {
    MaxRate = searchMaxRate(W, A, Phases);
    note("rate search done");
  }
  W.Svc->drain();
  note("measured");

  // Reference check of every accepted tree of every phase.
  for (size_t G = 0; G < 4; ++G) {
    std::vector<uint64_t> Ref = referenceDigests(*W.L[G], W.Pools[G]);
    for (const PhaseOut &P : Phases)
      for (size_t I = 0; I < P.Reqs.size(); ++I)
        if (P.Reqs[I].Grammar == G && P.Reqs[I].Digested &&
            P.Reqs[I].Digest != Ref[P.Reqs[I].File])
          Res.mismatch("tree differs from the ATN reference", I);
  }
  note("reference checked");
  // Only the fixed phase counts as attempted work; the rate probes run
  // above capacity on purpose and count through max_rate_rps.
  const PhaseOut &Fixed = Phases[FixedIdx];
  Res.Attempted += Fixed.Reqs.size();
  for (size_t I = 0; I < Fixed.Reqs.size(); ++I) {
    const ReqRecord &R = Fixed.Reqs[I];
    if (R.Status != service::ResponseStatus::Done)
      Res.fail(*R.Refusal ? R.Refusal : service::responseStatusName(R.Status),
               I);
    else if (R.Kind == ParseResult::Kind::BudgetExceeded)
      Res.fail("deadline passed during the parse", I);
    else if (!R.Accepted)
      Res.mismatch("parse did not accept", I);
  }

  // End-to-end times at the reference host speed (HostSpeed).
  const double Scale = W.Speed.scale();
  std::fprintf(stderr, "host: median slice %.1f us, scale %.4f\n",
               W.Speed.medianSliceS() * 1e6, Scale);
  if (!A.Trace) {
    Res.add("setup_s", median(SetupS) * Scale, "s");
    Res.add("tokens_per_s", Fixed.windowedTokensPerS() / Scale, "tok/s");
    Res.add("latency_p50_ms", Fixed.windowedLatencyMs(0.50, 1.0) * Scale,
            "ms");
    Res.add("latency_tail_ms", Fixed.windowedLatencyMs(0.90, 1.0) * Scale,
            "ms");
    Res.add("max_rate_rps", MaxRate / Scale, "1/s");
    Res.add("peak_rss_mb", RssMb, "MB");
    Res.print();
    return Res.correct() ? 0 : 1;
  }

  // Per-layer metrics describe the fixed phase. Nothing is traced while
  // requests run: every phase records each request's times, and the spans
  // are built from the fixed phase's records afterwards, so tracing costs
  // the requests nothing (trace.overhead_req_p50_ms is 0).
  SpanLog Spans;
  std::vector<double> SubmitUs, QueueMs, ExecMs, LateMs;
  Machine::Stats Core;
  double ExecS = 0;
  uint64_t QueueFull = 0, DeadlineRefused = 0, Shed = 0, Expired = 0,
           Retries = 0, Downgrades = 0;
  for (size_t I = 0; I < Fixed.Reqs.size(); ++I) {
    const ReqRecord &R = Fixed.Reqs[I];
    uint32_t Root = Spans.add("request", 0, I, R.Due, R.DoneAt, R.Tokens);
    Spans.add("gen.late", Root, I, R.Due, R.SubmitBegin);
    Spans.add("service.submit", Root, I, R.SubmitBegin, R.SubmitEnd);
    Clock::time_point Started =
        R.SubmitEnd + std::chrono::microseconds(R.QueueWaitUs);
    Spans.add("service.queue", Root, I, R.SubmitEnd, Started);
    Spans.add("core", Root, I, std::min(Started, R.DoneAt), R.DoneAt,
              R.Stats.Steps);
    SubmitUs.push_back(secondsBetween(R.SubmitBegin, R.SubmitEnd) * 1e6);
    LateMs.push_back(secondsBetween(R.Due, R.SubmitBegin) * 1e3);
    QueueMs.push_back(double(R.QueueWaitUs) / 1e3);
    double Exec = double(R.LatencyUs - std::min(R.LatencyUs, R.QueueWaitUs));
    ExecMs.push_back(Exec / 1e3);
    ExecS += Exec / 1e6;
    Core.accumulate(R.Stats);
    // The service's own counters, for this phase only (report() covers
    // the whole run): its refusal causes and retry outcomes.
    const std::string_view Why = R.Refusal;
    QueueFull += Why == "queue_full";
    DeadlineRefused +=
        R.FrontDoor && (Why == "deadline_unmeetable" ||
                        R.Status == service::ResponseStatus::Expired);
    Shed += R.Status == service::ResponseStatus::Shed;
    Expired += !R.FrontDoor && R.Status == service::ResponseStatus::Expired;
    Retries += R.Retries;
    Downgrades += R.Downgraded;
  }
  const obs::MetricsRegistry &M = W.Svc->report().Metrics;
  Layers L;
  L["lang.build_s"] = median(LangS);
  L["snapshot.load_s"] = median(LoadS);
  double SnapBytes = 0;
  for (const std::string &Path : SnapPaths)
    SnapBytes += double(std::ifstream(Path, std::ios::binary | std::ios::ate)
                            .tellg());
  L["snapshot.bytes"] = SnapBytes;
  L["snapshot.states"] = double(SnapStates);
  L.addCore(Core, 1, ExecS);
  L["service.submit_us_p99"] = quantile(SubmitUs, 0.99);
  L["service.queue_wait_ms_p50"] = quantile(QueueMs, 0.50);
  L["service.queue_wait_ms_p99"] = quantile(QueueMs, 0.99);
  L["service.exec_ms_p50"] = quantile(ExecMs, 0.50);
  L["service.exec_ms_p99"] = quantile(ExecMs, 0.99);
  L["service.rejected.queue_full"] = double(QueueFull);
  L["service.rejected.deadline"] = double(DeadlineRefused);
  L["service.shed"] = double(Shed);
  L["service.expired"] = double(Expired);
  L["service.retries"] = double(Retries);
  L["service.downgrades"] = double(Downgrades);
  // No response tells of steals or respawns; these come from report()
  // after drain() and cover the traced run from start(): the warm-up
  // phases and the fixed phase.
  for (const char *Name :
       {"service.steals", "service.steal_fails", "service.respawns"})
    L[Name] = double(M.counter(Name));
  L["service.latency_p99_ms"] = Fixed.latencyMs(0.99);
  L["gen.late_ms_p99"] = quantile(LateMs, 0.99);
  L["trace.overhead_req_p50_ms"] = 0;
  L["trace.spans"] = double(Spans.size());
  L["host.slice_us"] = W.Speed.medianSliceS() * 1e6;
  Spans.write(A.Work + "/spans-" + A.Workload + ".jsonl", Origin);
  L.print(Res);
  return Res.correct() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Args A = parseArgs(argc, argv);
  if (A.Workload == "cold-python")
    return runPipeline(A, /*Verilint=*/false);
  if (A.Workload == "warm-verilint")
    return runPipeline(A, /*Verilint=*/true);
  if (A.Workload == "service-skewed")
    return runService(A);
  usage(("unknown workload " + A.Workload).c_str());
}
