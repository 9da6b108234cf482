/**
 * @file
 * The PRA simulator's benchmark (README.md in this directory
 * explains the workloads, metrics and trace format).
 *
 * One invocation runs one named workload in one process and prints, as
 * the last line of stdout, one JSON object
 *
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1: a separate traced run that also writes a span file).
 *
 *   pra_perfbench --workload NAME [--seed N] [--seconds S] [--jobs N]
 *                 [--trace 1 --trace-out FILE]
 *
 * Layers are measured from outside: pra_perfbench times its own calls into
 * public functions (sim::Runner::runJob, sim::WarmupCache::get,
 * sim::AloneIpcCache::get, cpu::Generator::next,
 * cache::Hierarchy::access, dram::DramSystem::enqueue/tick,
 * analysis::ModelChecker::run) and reads the deterministic counts that
 * sim::RunResult and analysis::ModelCheckResult return.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/model_checker.h"
#include "dram/dram_system.h"
#include "dram/sched/scheduler_policy.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/runner.h"

using namespace pra;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------ constants

/**
 * Instructions per core of every shared cell: the canonical export
 * grid's length (bench_export_sweep). The mixes use it too, half the
 * Fig. 13 length, so a ws_mixes pass fits several times in a run.
 */
constexpr std::uint64_t kCellTarget = 400'000;
/** The scale geometry of bench_export_sweep's event-speedup gate. */
constexpr unsigned kScaleChannels = 32;
constexpr unsigned kScaleRanks = 2;
/** Functional warmup of the paper cells (SystemConfig's default). */
constexpr std::uint64_t kPaperWarmupOps = 120'000;
/** Paper averages the model is checked against (Fig. 12, Fig. 13). */
constexpr double kPaperPraPower = 0.77;
constexpr double kPaperPraWs = 0.992;
/** Setup repetitions; setup_s is their median. */
constexpr int kSetupReps = 5;
/** Depth of the analysis probe exploration (75,257 states). */
constexpr Cycle kProbeDepth = 12;
/** Least analysis-probe rounds; states_per_s is their median rate. */
constexpr unsigned kProbeRounds = 2;
/** Least MIX1 probe passes on modelcheck; its rates are their median. */
constexpr int kSimProbeReps = 5;
/** Layer replay: generator ops per core, and batch sizes per span. */
constexpr std::uint64_t kReplayOpsPerCore = 8'192;
constexpr std::uint64_t kReplayBatch = 4'096;
constexpr Cycle kTickBatch = 8'192;
constexpr Cycle kReplayCycleLimit = 50'000'000;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median as Python's statistics.median computes it. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -------------------------------------------------------------- tracing

/** One recorded call into a layer, timed from pra_perfbench. */
struct Span
{
    std::string name;          //!< "<layer>.<call>"
    double start = 0.0;        //!< Seconds since the tracer's epoch.
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0 = root.
    unsigned thread = 0;
};

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

/**
 * In-memory span store. Disabled tracers still hand out ids and let
 * ScopedSpan time its call; only recording is skipped.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }
    double now() const { return since(epoch_); }
    std::uint64_t nextId() { return ++ids_; }

    void
    record(Span s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
    }

    std::size_t size() const { return spans_.size(); }

    /**
     * Self time per layer: each span's duration minus the union of the
     * intervals its children cover inside it (children of one span may
     * run concurrently on several threads).
     */
    std::map<std::string, double>
    selfTimeByLayer() const
    {
        std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
        for (const Span &s : spans_)
            kids[s.parent].emplace_back(s.start, s.end);
        std::map<std::string, double> self;
        for (const Span &s : spans_) {
            double covered = 0.0;
            auto it = kids.find(s.id);
            if (it != kids.end()) {
                std::vector<std::pair<double, double>> iv = it->second;
                std::sort(iv.begin(), iv.end());
                double lo = s.start, hi = s.start;
                for (auto [a, b] : iv) {
                    a = std::max(a, s.start);
                    b = std::min(b, s.end);
                    if (b <= a)
                        continue;
                    if (a > hi) {
                        covered += hi - lo;
                        lo = a;
                    }
                    hi = std::max(hi, b);
                }
                covered += hi - lo;
            }
            self[layerOf(s.name)] += (s.end - s.start) - covered;
        }
        return self;
    }

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                          "\"tid\": %u, \"args\": {\"id\": %llu, "
                          "\"parent\": %llu}}",
                          s.name.c_str(), layerOf(s.name).c_str(),
                          s.start * 1e6, (s.end - s.start) * 1e6, s.thread,
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent));
            out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

    static std::string
    layerOf(const std::string &name)
    {
        return name.substr(0, name.find('.'));
    }

  private:
    bool on_;
    Clock::time_point epoch_ = Clock::now();
    std::atomic<std::uint64_t> ids_{0};
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** Times one call into a layer; records it as a span when tracing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t parent)
        : tracer_(tracer), name_(name), parent_(parent),
          id_(tracer.nextId()), start_(tracer.now())
    {
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (tracer_.on())
            tracer_.record(
                {name_, start_, tracer_.now(), id_, parent_, threadIndex()});
    }

    std::uint64_t id() const { return id_; }
    double seconds() const { return tracer_.now() - start_; }

  private:
    Tracer &tracer_;
    const char *name_;
    std::uint64_t parent_;
    std::uint64_t id_;
    double start_;
};

// -------------------------------------------------------------- reports

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Operations attempted and failed, plus the metrics of one run. */
struct Report
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool sane = true;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one operation; @p ok false marks it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "[perfbench] FAILED: %s\n", what.c_str());
        }
    }

    void
    print() const
    {
        bool finite = sane;
        std::string body;
        for (const Metric &m : metrics) {
            double v = m.value;
            if (!std::isfinite(v)) {
                std::fprintf(stderr, "[perfbench] non-finite metric %s\n",
                             m.name.c_str());
                finite = false;
                v = -1.0;
            }
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          body.empty() ? "" : ", ", m.name.c_str(), v,
                          m.unit.c_str());
            body += buf;
        }
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {%s}}\n",
                    finite && failed == 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed), body.c_str());
        std::fflush(stdout);
    }
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Cell-time summary. Each pass gives its median cell time and its tail:
 * the highest percentile with at least ten of the pass's cells beyond it
 * (the maximum when a pass has ten cells or fewer). Every pass runs the
 * same cells, so the tail's percentile is fixed per workload, whatever
 * the number of passes; the metrics are the medians over passes.
 */
void
addCellTimes(Report &rep, const std::vector<std::vector<double>> &passes)
{
    std::vector<double> p50s, tails;
    std::size_t n = 0;
    unsigned pct = 100;
    for (std::vector<double> secs : passes) {
        std::sort(secs.begin(), secs.end());
        n = secs.size();
        std::size_t tail_idx = n - 1;
        pct = 100;
        if (n > 10) {
            pct = static_cast<unsigned>(100 * (n - 10) / n);
            tail_idx = std::max<std::size_t>(1, (pct * n + 99) / 100) - 1;
        }
        p50s.push_back(median(secs));
        tails.push_back(secs[tail_idx]);
    }
    std::fprintf(stderr,
                 "[perfbench] cell_s_tail is p%u over the %zu cells of a "
                 "pass, median of %zu passes\n",
                 pct, n, passes.size());
    rep.add("cell_s_p50", median(p50s), "s");
    rep.add("cell_s_tail", median(tails), "s");
}

// ------------------------------------------------------- simulator plans

/** The cells of one simulator workload and how they pair up. */
struct SimPlan
{
    std::vector<sim::SweepJob> jobs;
    /** (baseline job, pra job) per workload, for PRA/baseline ratios. */
    std::vector<std::pair<std::size_t, std::size_t>> praPairs;
    /** Alone runs behind Eq. 3 weighted speedup (empty: none). */
    std::vector<std::pair<std::string, sim::ConfigPoint>> alone;
};

sim::SweepJob
makeJob(const workloads::Mix &mix, const char *scheme, std::uint64_t target,
        std::uint64_t warmup_ops, unsigned channels = 0, unsigned ranks = 0)
{
    const sim::ConfigPoint point{&schemeByName(scheme),
                                 dram::PagePolicy::RelaxedClose, false};
    sim::SystemConfig cfg = sim::makeConfig(point);
    cfg.targetInstructions = target;
    cfg.warmupOpsPerCore = warmup_ops;
    if (channels != 0) {
        cfg.dram.channels = channels;
        cfg.dram.ranksPerChannel = ranks;
    }
    return {mix, point, 0, cfg};
}

/** The 8 rate-mode benchmarks x 6 schemes of the export grid. */
SimPlan
gridPlan(std::uint64_t warmup_ops, bool scale)
{
    static const char *const kSchemes[] = {"baseline", "fga", "halfdram",
                                           "sds", "pra", "halfdram+pra"};
    SimPlan plan;
    for (const std::string &name : workloads::benchmarkNames()) {
        const workloads::Mix rate{name, {name, name, name, name}};
        const std::size_t base = plan.jobs.size();
        for (const char *scheme : kSchemes)
            plan.jobs.push_back(makeJob(rate, scheme, kCellTarget,
                                        warmup_ops,
                                        scale ? kScaleChannels : 0,
                                        scale ? kScaleRanks : 0));
        plan.praPairs.emplace_back(base, base + 4);
    }
    return plan;
}

/**
 * Table 4 mixes under baseline and pra, with their alone runs: all six
 * (ws_mixes), or MIX1 alone (the probe). Workers claim cells in plan
 * order, so the six are listed longest first (MIX2, MIX3 and MIX6 run
 * 2-3x longer than MIX1), which keeps every worker busy to the end.
 */
SimPlan
mixPlan(std::uint64_t warmup_ops, bool all)
{
    static const std::vector<std::size_t> kLongestFirst = {1, 2, 5, 4, 3, 0};
    static const std::vector<std::size_t> kProbe = {0};
    SimPlan plan;
    for (std::size_t m : all ? kLongestFirst : kProbe) {
        const workloads::Mix &mix = workloads::mixes().at(m);
        const std::size_t base = plan.jobs.size();
        plan.jobs.push_back(
            makeJob(mix, "baseline", kCellTarget, warmup_ops));
        plan.jobs.push_back(makeJob(mix, "pra", kCellTarget, warmup_ops));
        plan.praPairs.emplace_back(base, base + 1);
    }
    std::set<std::pair<std::string, std::string>> seen;
    for (const sim::SweepJob &job : plan.jobs)
        for (const std::string &app : job.mix.apps)
            if (seen.emplace(job.point.key(), app).second)
                plan.alone.emplace_back(app, job.point);
    return plan;
}

/** The baseline/pra cells of @p plan (and its alone runs). */
SimPlan
praCells(const SimPlan &plan)
{
    SimPlan out;
    out.alone = plan.alone;
    for (const auto &[b, p] : plan.praPairs) {
        out.praPairs.emplace_back(out.jobs.size(), out.jobs.size() + 1);
        out.jobs.push_back(plan.jobs[b]);
        out.jobs.push_back(plan.jobs[p]);
    }
    return out;
}

/** The (config, mix) warmups a plan needs, one per warmupKey. */
std::vector<std::pair<sim::SystemConfig, workloads::Mix>>
planWarmups(const SimPlan &plan)
{
    std::vector<std::pair<sim::SystemConfig, workloads::Mix>> out;
    std::set<std::string> keys;
    auto add = [&](const sim::SystemConfig &cfg, const workloads::Mix &mix) {
        if (keys.insert(sim::warmupKey(cfg, mix)).second)
            out.emplace_back(cfg, mix);
    };
    for (const sim::SweepJob &job : plan.jobs)
        add(sim::sweepJobConfig(job), job.mix);
    for (const auto &[app, point] : plan.alone)
        add(sim::makeConfig(point), workloads::Mix{app, {app, "", "", ""}});
    return out;
}

/**
 * Compute every warm snapshot of @p plan into @p cache, adding the
 * seconds spent inside WarmupCache::get to @p busy_s when given.
 */
void
prewarm(sim::Runner &runner, sim::WarmupCache &cache, const SimPlan &plan,
        Tracer &tracer, std::uint64_t parent, double *busy_s = nullptr)
{
    const auto warmups = planWarmups(plan);
    std::vector<double> secs(warmups.size());
    runner.parallelFor(warmups.size(), [&](std::size_t i) {
        ScopedSpan span(tracer, "sim.warmup", parent);
        cache.get(warmups[i].first, warmups[i].second);
        secs[i] = span.seconds();
    });
    if (busy_s != nullptr)
        for (double s : secs)
            *busy_s += s;
}

/** One cold pass over a plan's cells. */
struct SimPass
{
    std::vector<sim::RunResult> results;
    std::vector<double> aloneIpc;   //!< Per plan.alone entry.
    std::vector<double> cellSecs;   //!< Shared cells, then alone runs.
    double wall = 0.0;
    std::uint64_t cycles = 0;
    double powerRatio = 0.0;        //!< Mean PRA/baseline avg power.
    double wsRatio = 0.0;           //!< Mean PRA/baseline Eq. 3 (or 0).
};

bool
completed(const sim::RunResult &r, const sim::SweepJob &job)
{
    const sim::SystemConfig cfg = sim::sweepJobConfig(job);
    if (r.dramCycles >= cfg.maxDramCycles || r.retired.empty())
        return false;
    return std::all_of(r.retired.begin(), r.retired.end(),
                       [&](std::uint64_t n) {
                           return n >= cfg.targetInstructions;
                       });
}

SimPass
runSimPass(sim::Runner &runner, const SimPlan &plan, Tracer &tracer)
{
    SimPass pass;
    const std::size_t n = plan.jobs.size() + plan.alone.size();
    pass.results.resize(plan.jobs.size());
    pass.aloneIpc.resize(plan.alone.size());
    pass.cellSecs.resize(n);
    // A fresh alone cache per pass keeps its alone runs cold; it shares
    // the runner's pre-warmed snapshots, and no persistent cache.
    sim::AloneIpcCache alone;
    alone.shareWarmups(&runner.warmups());
    {
        ScopedSpan span(tracer, "bench.pass", 0);
        runner.parallelFor(n, [&](std::size_t i) {
            if (i < plan.jobs.size()) {
                ScopedSpan cell(tracer, "sim.runJob", span.id());
                pass.results[i] = runner.runJob(plan.jobs[i]);
                pass.cellSecs[i] = cell.seconds();
            } else {
                ScopedSpan cell(tracer, "sim.aloneIpc", span.id());
                const std::size_t a = i - plan.jobs.size();
                pass.aloneIpc[a] =
                    alone.get(plan.alone[a].first, plan.alone[a].second);
                pass.cellSecs[i] = cell.seconds();
            }
        });
        pass.wall = span.seconds();
    }
    for (const sim::RunResult &r : pass.results)
        pass.cycles += r.dramCycles;

    double power = 0.0, ws = 0.0;
    for (const auto &[b, p] : plan.praPairs) {
        const sim::RunResult &base = pass.results[b];
        const sim::RunResult &pra = pass.results[p];
        power += base.avgPowerMw > 0.0 ? pra.avgPowerMw / base.avgPowerMw
                                       : 0.0;
        if (!plan.alone.empty()) {
            const double base_ws = sim::weightedSpeedup(
                plan.jobs[b].mix, base, plan.jobs[b].point, alone);
            const double pra_ws = sim::weightedSpeedup(
                plan.jobs[p].mix, pra, plan.jobs[p].point, alone);
            ws += base_ws > 0.0 ? pra_ws / base_ws : 0.0;
        }
    }
    const double pairs = static_cast<double>(plan.praPairs.size());
    pass.powerRatio = power / pairs;
    pass.wsRatio = ws / pairs;
    return pass;
}

/**
 * Output checks on a pass: every cell finished, every alone run has an
 * IPC, and each equals its counterpart in @p reference when given.
 */
void
checkPass(Report &rep, const SimPlan &plan, const SimPass &pass,
          const SimPass *reference)
{
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        const std::string cell = plan.jobs[i].mix.name + "/" +
                                 plan.jobs[i].point.key();
        bool ok = completed(pass.results[i], plan.jobs[i]);
        if (ok && reference != nullptr)
            ok = sim::identicalResults(pass.results[i],
                                       reference->results[i]);
        rep.check(ok, "cell " + cell +
                          " did not finish or differs from the first pass");
    }
    for (std::size_t a = 0; a < plan.alone.size(); ++a) {
        const double ipc = pass.aloneIpc[a];
        rep.check(ipc > 0.0 && (reference == nullptr ||
                                ipc == reference->aloneIpc[a]),
                  "alone run " + plan.alone[a].first + "/" +
                      plan.alone[a].second.key() +
                      " has no IPC or differs from the first pass");
    }
}

/** Sums of the simulated outcomes over a pass's cells. */
struct SimTotals
{
    std::uint64_t cells = 0, cycles = 0, retired = 0;
    std::uint64_t rowHits = 0, rowAccesses = 0;
    std::uint64_t rounds = 0, skipped = 0, events = 0, pushes = 0;
    std::uint64_t commands = 0, writeActs = 0, writeActGroups = 0;
    std::uint64_t ipcCount = 0;
    double ipcSum = 0.0, powerSum = 0.0, actEnergy = 0.0, energy = 0.0;
    Summary latency;

    void
    add(const sim::RunResult &r)
    {
        const dram::ControllerStats &s = r.dramStats;
        ++cells;
        cycles += r.dramCycles;
        for (std::size_t c = 0; c < r.retired.size(); ++c) {
            retired += r.retired[c];
            ipcSum += r.ipc[c];
            ++ipcCount;
        }
        rowHits += s.readRowHits + s.writeRowHits;
        rowAccesses += s.readRowHits + s.writeRowHits + s.readRowMisses +
                       s.writeRowMisses;
        rounds += r.engine.rounds;
        skipped += r.engine.skippedTicks;
        events += r.engine.eventsPopped;
        pushes += r.engine.heapPushes;
        commands += s.actsForReads + s.actsForWrites + s.precharges +
                    s.refreshes + s.rfms + r.energy.readLines +
                    r.energy.writeLines;
        for (std::size_t g = 1; g < s.actGranularity.buckets(); ++g) {
            const std::uint64_t w =
                s.actGranularity.count(g) - s.readActGranularity.count(g);
            writeActs += w;
            writeActGroups += w * g;
        }
        latency.merge(s.readLatency);
        powerSum += r.avgPowerMw;
        actEnergy += r.breakdown.actPre;
        energy += r.breakdown.total();
    }

    void
    report(Report &rep) const
    {
        auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
        const double dcells = static_cast<double>(cells);
        rep.add("dram.rounds", static_cast<double>(rounds), "count");
        rep.add("dram.skip_ratio",
                ratio(static_cast<double>(skipped),
                      static_cast<double>(rounds + skipped)),
                "ratio");
        rep.add("dram.events_popped", static_cast<double>(events), "count");
        rep.add("dram.heap_pushes", static_cast<double>(pushes), "count");
        rep.add("dram.commands", static_cast<double>(commands), "count");
        rep.add("dram.cmds_per_round",
                ratio(static_cast<double>(commands),
                      static_cast<double>(rounds)),
                "ratio");
        rep.add("dram.cycles", static_cast<double>(cycles), "count");
        rep.add("dram.row_hit_rate",
                ratio(static_cast<double>(rowHits),
                      static_cast<double>(rowAccesses)),
                "ratio");
        rep.add("dram.read_latency_mean", latency.mean(), "cycles");
        rep.add("dram.write_act_gran_mean",
                ratio(static_cast<double>(writeActGroups),
                      static_cast<double>(writeActs)),
                "groups");
        rep.add("cpu.retired", static_cast<double>(retired), "count");
        rep.add("cpu.ipc_mean",
                ratio(ipcSum, static_cast<double>(ipcCount)), "ipc");
        rep.add("power.avg_mw", ratio(powerSum, dcells), "mW");
        rep.add("power.act_share", ratio(actEnergy, energy), "ratio");
    }
};

// --------------------------------------------------------- layer replay

/** Front-end and DRAM work of the isolated layer replays. */
struct ReplayTotals
{
    double nextSecs = 0.0, accessSecs = 0.0, tickSecs = 0.0;
    std::uint64_t nexts = 0, accesses = 0, l2Lookups = 0, llcMisses = 0;
    std::uint64_t memWrites = 0, ticks = 0;
    bool drained = true;
};

struct DramRequest
{
    Addr addr = 0;
    bool isWrite = false;
    WordMask mask = WordMask::full();
    std::uint8_t chips = 0xff;
};

/**
 * Replay a cell's post-warmup instruction streams through a copy of its
 * warmed hierarchy, as System::functionalWarmup does (round-robin over
 * cores, System::translate's per-core address slices), and return the
 * resulting miss and writeback stream.
 */
std::vector<DramRequest>
frontEndReplay(const sim::WarmSnapshot &snap, const sim::SystemConfig &cfg,
               Tracer &tracer, std::uint64_t parent, ReplayTotals &tot)
{
    cache::Hierarchy hier(snap.hier);
    std::vector<std::unique_ptr<cpu::Generator>> gens;
    for (const auto &g : snap.gens)
        gens.push_back(g->clone());
    const Addr slice =
        dram::AddressMapper(cfg.dram).capacityBytes() / cfg.caches.numCores;

    std::vector<DramRequest> stream;
    std::vector<std::vector<cpu::MemOp>> ops(
        gens.size(), std::vector<cpu::MemOp>(kReplayBatch));
    for (std::uint64_t done = 0; done < kReplayOpsPerCore;
         done += kReplayBatch) {
        {
            ScopedSpan span(tracer, "workloads.next", parent);
            for (std::size_t c = 0; c < gens.size(); ++c)
                for (cpu::MemOp &op : ops[c])
                    op = gens[c]->next();
            tot.nextSecs += span.seconds();
        }
        tot.nexts += kReplayBatch * gens.size();
        ScopedSpan span(tracer, "cache.access", parent);
        for (std::uint64_t i = 0; i < kReplayBatch; ++i) {
            for (unsigned c = 0; c < gens.size(); ++c) {
                const cpu::MemOp &op = ops[c][i];
                const Addr addr = (op.addr % slice) + c * slice;
                cache::HierarchyOutcome out =
                    hier.access(c, addr, op.isWrite, op.bytes);
                ++tot.accesses;
                tot.l2Lookups += out.l1Hit ? 0 : 1;
                if (out.needsMemRead) {
                    ++tot.llcMisses;
                    stream.push_back({addr, false, WordMask::full(), 0xff});
                }
                for (const cache::Writeback &wb : out.writebacks) {
                    ++tot.memWrites;
                    stream.push_back({wb.addr, true, wb.praMask(),
                                      wb.dirty.toChipMask()});
                }
            }
        }
        tot.accessSecs += span.seconds();
    }
    return stream;
}

/**
 * Cycles per DRAM request of a real run: its cycles over the 64 B lines
 * it read and wrote (0 when it made no request).
 */
double
requestInterval(const sim::RunResult &r)
{
    const std::uint64_t requests = r.energy.readLines + r.energy.writeLines;
    return requests ? static_cast<double>(r.dramCycles) /
                          static_cast<double>(requests)
                    : 0.0;
}

/**
 * Drive @p stream into a fresh DramSystem, ticking every cycle as
 * System::run does while its cores run, and check that it drains with
 * every read completed. Request i is enqueued at cycle i * @p interval,
 * or later when its channel queue is full, so the replay carries the
 * average load of the real run rather than saturating every channel.
 */
void
dramReplay(const std::vector<DramRequest> &stream,
           const dram::DramConfig &cfg, double interval, Tracer &tracer,
           std::uint64_t parent, ReplayTotals &tot)
{
    dram::DramSystem dram(cfg);
    std::size_t next = 0, reads = 0, completions = 0;
    auto pending = [&] { return next < stream.size() || dram.busy(); };
    auto due = [&] {
        return static_cast<double>(next) * interval <=
               static_cast<double>(dram.now());
    };
    while (pending()) {
        ScopedSpan span(tracer, "dram.tick", parent);
        for (Cycle k = 0; k < kTickBatch && pending(); ++k) {
            while (next < stream.size() && due() &&
                   dram.canAccept(stream[next].addr, stream[next].isWrite)) {
                const DramRequest &r = stream[next];
                dram.enqueue(r.addr, r.isWrite, r.mask, 0, next, r.chips);
                reads += r.isWrite ? 0 : 1;
                ++next;
            }
            dram.tick();
            completions += dram.drainCompletions().size();
            ++tot.ticks;
        }
        tot.tickSecs += span.seconds();
        if (dram.now() > kReplayCycleLimit) {
            tot.drained = false;
            return;
        }
    }
    tot.drained = tot.drained && completions == reads;
}

/**
 * Layer replays of a plan: for each baseline/pra pair, one front-end
 * replay of the pair's warm snapshot (both cells share it), then a DRAM
 * replay of that stream under each of the two configurations, paced at
 * the request rate each cell had in @p first.
 */
void
replayLayers(sim::Runner &runner, const SimPlan &plan, const SimPass &first,
             Tracer &tracer, Report &rep)
{
    ScopedSpan root(tracer, "bench.replay", 0);
    ReplayTotals tot;
    for (const auto &[b, p] : plan.praPairs) {
        const sim::SystemConfig cfg = sim::sweepJobConfig(plan.jobs[b]);
        const auto snap = runner.warmups().get(cfg, plan.jobs[b].mix);
        const std::vector<DramRequest> stream =
            frontEndReplay(*snap, cfg, tracer, root.id(), tot);
        dramReplay(stream, cfg.dram, requestInterval(first.results[b]),
                   tracer, root.id(), tot);
        dramReplay(stream, sim::sweepJobConfig(plan.jobs[p]).dram,
                   requestInterval(first.results[p]), tracer, root.id(), tot);
    }
    rep.check(tot.drained, "a DRAM replay did not complete every read");

    auto per = [](double secs, std::uint64_t n) {
        return n ? secs * 1e9 / static_cast<double>(n) : 0.0;
    };
    rep.add("dram.tick_ns", per(tot.tickSecs, tot.ticks), "ns");
    rep.add("cache.access_ns", per(tot.accessSecs, tot.accesses), "ns");
    rep.add("cache.accesses", static_cast<double>(tot.accesses), "count");
    rep.add("cache.llc_miss_ratio",
            tot.l2Lookups ? static_cast<double>(tot.llcMisses) /
                                static_cast<double>(tot.l2Lookups)
                          : 0.0,
            "ratio");
    rep.add("cache.mem_writes", static_cast<double>(tot.memWrites), "count");
    rep.add("workloads.next_ns", per(tot.nextSecs, tot.nexts), "ns");
}

// ------------------------------------------------------- model checking

analysis::ModelChecker::Options
checkerOptions(dram::SchedulerKind scheduler, Cycle depth)
{
    analysis::ModelChecker::Options opts;
    opts.scheduler = scheduler;
    opts.depth = depth;
    return opts;
}

/** An exploration fails when it finds a violation or runs out of budget. */
void
checkExploration(Report &rep, const analysis::ModelChecker::Options &opts,
                 const analysis::ModelCheckResult &r)
{
    rep.check(!r.violationFound && !r.budgetExhausted,
              std::string("exploration under ") +
                  dram::schedulerKindName(opts.scheduler) + ": " +
                  (r.violationFound ? r.violation : "budget exhausted"));
}

/** One exploration, timed and checked; returns its seconds. */
double
explore(const analysis::ModelChecker::Options &opts, Tracer &tracer,
        std::uint64_t parent, Report &rep, analysis::ModelCheckResult &out)
{
    ScopedSpan span(tracer, "analysis.run", parent);
    out = analysis::ModelChecker(opts).run();
    const double secs = span.seconds();
    checkExploration(rep, opts, out);
    return secs;
}

/** Totals of a set of explorations. */
struct ExploreTotals
{
    std::uint64_t states = 0, deduped = 0, commands = 0;
    double secs = 0.0;

    void
    add(const analysis::ModelCheckResult &r, double s)
    {
        states += r.statesExplored;
        deduped += r.statesDeduped;
        commands += r.commandsIssued;
        secs += s;
    }

    void
    report(Report &rep) const
    {
        const double st = static_cast<double>(states);
        rep.add("analysis.ns_per_state", st > 0 ? secs * 1e9 / st : 0.0,
                "ns");
        rep.add("analysis.states", st, "count");
        rep.add("analysis.deduped", static_cast<double>(deduped), "count");
        rep.add("analysis.commands", static_cast<double>(commands), "count");
        rep.add("analysis.dedup_ratio",
                st > 0 ? static_cast<double>(deduped) / st : 0.0, "ratio");
    }
};

/**
 * One round of the analysis probe: a small frfcfs exploration on every
 * worker at once, so that one slow host CPU moves the median rate less.
 * Appends each exploration's rate to @p rates, and the first one's
 * counts to @p counts on the first round. Returns the round's seconds.
 */
double
analysisProbe(sim::Runner &runner, Tracer &tracer, Report &rep,
              std::vector<double> &rates, ExploreTotals &counts)
{
    ScopedSpan root(tracer, "bench.probe", 0);
    const auto opts = checkerOptions(dram::SchedulerKind::FrFcfs, kProbeDepth);
    std::vector<analysis::ModelCheckResult> results(runner.threads());
    std::vector<double> secs(results.size());
    runner.parallelFor(results.size(), [&](std::size_t i) {
        ScopedSpan span(tracer, "analysis.run", root.id());
        results[i] = analysis::ModelChecker(opts).run();
        secs[i] = span.seconds();
    });
    if (rates.empty())
        counts.add(results[0], secs[0]);
    for (std::size_t i = 0; i < results.size(); ++i) {
        checkExploration(rep, opts, results[i]);
        rates.push_back(static_cast<double>(results[i].statesExplored) /
                        secs[i]);
    }
    return root.seconds();
}

// ------------------------------------------------------------ workloads

struct Args
{
    std::string workload;
    std::int64_t seed = 0;
    double seconds = 20.0;
    bool trace = false;
    unsigned jobs = 0;
    std::string traceOut;  //!< Span file; required with --trace 1.
};

/**
 * Run whole passes until @p seconds have elapsed, stopping early when
 * one more pass would overrun by more than half a pass.
 */
void
timedLoop(double seconds, const std::function<double()> &pass)
{
    const auto t0 = Clock::now();
    double last = 0.0;
    do {
        last = pass();
    } while (since(t0) + 0.5 * last < seconds);
}

/** What one workload run measured, before it becomes metrics. */
struct Measured
{
    std::vector<double> setup;        //!< Seconds per set-up repetition.
    std::vector<double> walls;        //!< Untraced pass seconds.
    std::vector<double> tracedWalls;  //!< Traced pass seconds.
    std::vector<std::vector<double>> cellSecs;  //!< Cell seconds per pass.
    std::vector<double> mcyclesPerS;  //!< Per sweep pass.
    std::vector<double> statesPerS;   //!< Per exploration or pass.
    double powerRatio = 0.0;          //!< Paper cells, mean PRA/baseline.
    double wsRatio = 0.0;             //!< Paper cells, mean Eq. 3 ratio.
    const SimPass *sim = nullptr;     //!< First sweep pass.
    ExploreTotals explored;           //!< One exploration set.
    double warmupBusy = 0.0;          //!< Seconds inside WarmupCache::get.
    double runBusy = 0.0;             //!< Cell seconds of a traced pass.
    std::size_t cells = 0;            //!< Cells per sweep pass.
};

/** Turn @p m into the run's metrics: end-to-end or per-layer. */
void
finish(const Args &args, const Measured &m, const sim::Runner &runner,
       Tracer &tracer, Report &rep)
{
    rep.sane = m.powerRatio > 0.0 && m.powerRatio < 1.0 && m.wsRatio > 0.0;
    if (!args.trace) {
        rep.add("setup_s", median(m.setup), "s");
        rep.add("wall_s", median(m.walls), "s");
        rep.add("dram_mcycles_per_s", median(m.mcyclesPerS), "Mcycles/s");
        addCellTimes(rep, m.cellSecs);
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.add("states_per_s", median(m.statesPerS), "1/s");
        rep.add("pra_power_err", std::fabs(m.powerRatio - kPaperPraPower),
                "ratio");
        rep.add("pra_ws_err", std::fabs(m.wsRatio - kPaperPraWs), "ratio");
        return;
    }

    SimTotals totals;
    for (const sim::RunResult &r : m.sim->results)
        totals.add(r);
    totals.report(rep);
    m.explored.report(rep);
    rep.add("sim.warmup_s", m.warmupBusy, "s");
    rep.add("sim.warmups", static_cast<double>(runner.warmupsComputed()),
            "count");
    rep.add("sim.cells", static_cast<double>(m.cells), "count");
    rep.add("sim.run_s", m.runBusy, "s");

    const auto self = tracer.selfTimeByLayer();
    for (const char *layer :
         {"bench", "sim", "workloads", "cache", "dram", "analysis"}) {
        auto it = self.find(layer);
        rep.add(std::string(layer) + ".self_s",
                it == self.end() ? 0.0 : it->second, "s");
    }
    rep.add("trace.overhead_s", median(m.tracedWalls) - median(m.walls),
            "s");
    rep.add("trace.spans", static_cast<double>(tracer.size()), "count");
    if (!tracer.write(args.traceOut))
        rep.check(false, "could not write " + args.traceOut);
}

/** Sum of the cell seconds of @p pass (shared cells and alone runs). */
double
busySeconds(const SimPass &pass)
{
    double s = 0.0;
    for (double c : pass.cellSecs)
        s += c;
    return s;
}

/**
 * paper_grid, scale_grid and ws_mixes: set up, time cold passes, check
 * the outputs, then take the metrics the workload does not exercise
 * from the probes.
 */
void
runSimWorkload(const Args &args, Report &rep)
{
    // The seed varies the functional warmup length, so each seed starts
    // the measured region from other cache and generator states; the
    // default seed 0 gives the paper cells.
    const std::uint64_t warmup_ops =
        kPaperWarmupOps +
        16 * static_cast<std::uint64_t>((args.seed % 128 + 128) % 128);
    const bool mixes = args.workload == "ws_mixes";
    const bool scale = args.workload == "scale_grid";
    Tracer tracer(args.trace);
    Tracer untraced(false);
    sim::Runner runner(args.jobs);
    Measured m;

    // Set-up: plan building plus warm-snapshot computation, repeated
    // into fresh caches; the last repetition fills the runner's cache
    // so every timed cell forks from a ready snapshot.
    SimPlan plan;
    for (int i = 0; i < kSetupReps; ++i) {
        ScopedSpan span(tracer, "bench.setup", 0);
        plan = mixes ? mixPlan(warmup_ops, true)
                     : gridPlan(warmup_ops, scale);
        const bool last = i + 1 == kSetupReps;
        sim::WarmupCache fresh;
        prewarm(runner, last ? runner.warmups() : fresh, plan, tracer,
                span.id(), last ? &m.warmupBusy : nullptr);
        m.setup.push_back(span.seconds());
    }

    // Timed region: cold passes (no result cache, pre-warmed snapshots).
    // A traced run alternates untraced and traced passes; the tracing
    // overhead is the difference of their medians. One analysis-probe
    // round follows each pass, outside its timing, so the probe's
    // samples spread over the whole run.
    std::vector<SimPass> passes;
    auto pass = [&](Tracer &tr) {
        passes.push_back(runSimPass(runner, plan, tr));
        const SimPass &p = passes.back();
        m.cellSecs.push_back(p.cellSecs);
        m.mcyclesPerS.push_back(static_cast<double>(p.cycles) / p.wall /
                                1e6);
        return p.wall;
    };
    timedLoop(args.seconds, [&] {
        m.walls.push_back(pass(untraced));
        double spent = m.walls.back();
        if (args.trace) {
            m.tracedWalls.push_back(pass(tracer));
            m.runBusy = busySeconds(passes.back());
            spent += m.tracedWalls.back();
        }
        return spent + analysisProbe(runner, tracer, rep, m.statesPerS,
                                     m.explored);
    });
    while (m.statesPerS.size() < kProbeRounds * runner.threads())
        analysisProbe(runner, tracer, rep, m.statesPerS, m.explored);
    m.sim = &passes.front();
    m.cells = plan.jobs.size() + plan.alone.size();

    // Output checks, outside the timed region.
    for (const SimPass &p : passes)
        checkPass(rep, plan, p, &p == m.sim ? nullptr : m.sim);
    const std::size_t sample =
        static_cast<std::size_t>(args.seed % 1024 + 1024) % plan.jobs.size();
    rep.check(sim::identicalResults(sim::runSweepJob(plan.jobs[sample]),
                                    m.sim->results[sample]),
              "warm-forked cell " + std::to_string(sample) +
                  " differs from its cold run");
    const std::uint64_t hits = runner.resultCacheHits();
    rep.attempted += hits;
    rep.failed += hits;
    if (hits > 0)
        std::fprintf(stderr, "[perfbench] FAILED: %llu result-cache hits\n",
                     static_cast<unsigned long long>(hits));

    // Accuracy against the paper's averages is a property of the model,
    // so it is always taken on the paper cells: the first pass when this
    // run's seed gives them, else one untimed pass over their baseline
    // and pra cells (skipped by traced runs, which do not report it).
    // The grids carry no alone runs, so their Eq. 3 ratio comes from the
    // MIX1 probe.
    auto untimedPass = [&](const SimPlan &ref) {
        ScopedSpan span(tracer, "bench.probe", 0);
        prewarm(runner, runner.warmups(), ref, tracer, span.id());
        SimPass p = runSimPass(runner, ref, tracer);
        checkPass(rep, ref, p, nullptr);
        return p;
    };
    std::optional<SimPass> paper;
    if (warmup_ops != kPaperWarmupOps && !args.trace)
        paper = untimedPass(praCells(mixes ? mixPlan(kPaperWarmupOps, true)
                                           : gridPlan(kPaperWarmupOps, scale)));
    const SimPass &paper_cells = paper ? *paper : *m.sim;
    m.powerRatio = paper_cells.powerRatio;
    m.wsRatio = mixes ? paper_cells.wsRatio
                      : untimedPass(mixPlan(kPaperWarmupOps, false)).wsRatio;

    if (args.trace)
        replayLayers(runner, plan, *m.sim, tracer, rep);
    finish(args, m, runner, tracer, rep);
}

/**
 * modelcheck: the default pra_modelcheck exploration (every scheduler,
 * default depth and budget), single-threaded and in-process. It has no
 * sweep cells, so the simulator metrics come from the MIX1 probe.
 */
void
runModelcheck(const Args &args, Report &rep)
{
    Tracer tracer(args.trace);
    Tracer untraced(false);
    Measured m;

    // Set-up: there is nothing to build, so warm the checker (allocator,
    // code paths) with the probe-sized exploration.
    for (int i = 0; i < kSetupReps; ++i) {
        ScopedSpan span(tracer, "bench.setup", 0);
        analysis::ModelCheckResult r;
        explore(checkerOptions(dram::SchedulerKind::FrFcfs, kProbeDepth),
                tracer, span.id(), rep, r);
        m.setup.push_back(span.seconds());
    }

    // The MIX1 probe stands in for the simulator metrics; its snapshots
    // are computed before the timed region.
    sim::Runner runner(args.jobs);
    const SimPlan probe = mixPlan(kPaperWarmupOps, false);
    {
        ScopedSpan span(tracer, "bench.probe", 0);
        prewarm(runner, runner.warmups(), probe, tracer, span.id(),
                &m.warmupBusy);
    }
    std::vector<SimPass> probes;
    auto probePass = [&] {
        probes.push_back(runSimPass(runner, probe, tracer));
        const SimPass &p = probes.back();
        checkPass(rep, probe, p, probes.size() == 1 ? nullptr : &probes[0]);
        m.cellSecs.push_back(p.cellSecs);
        m.mcyclesPerS.push_back(static_cast<double>(p.cycles) / p.wall /
                                1e6);
        return p.wall;
    };

    std::vector<std::uint64_t> pass_states;
    auto pass = [&](Tracer &tr) {
        ScopedSpan span(tr, "bench.pass", 0);
        ExploreTotals totals;
        for (dram::SchedulerKind k : dram::kAllSchedulerKinds) {
            analysis::ModelCheckResult r;
            const double secs = explore(
                checkerOptions(k, analysis::ModelChecker::kDefaultDepth), tr,
                span.id(), rep, r);
            totals.add(r, secs);
        }
        const double wall = span.seconds();
        pass_states.push_back(totals.states);
        m.statesPerS.push_back(static_cast<double>(totals.states) / wall);
        m.explored = totals;
        return wall;
    };
    // One MIX1 probe pass follows each exploration pass, outside its
    // timing, so the probe's samples spread over the whole run.
    timedLoop(args.seconds, [&] {
        m.walls.push_back(pass(untraced));
        double spent = m.walls.back();
        if (args.trace) {
            m.tracedWalls.push_back(pass(tracer));
            spent += m.tracedWalls.back();
        }
        return spent + probePass();
    });
    while (probes.size() < kSimProbeReps)
        probePass();
    for (std::uint64_t s : pass_states)
        rep.check(s == pass_states.front(),
                  "state count differs between passes");

    m.sim = &probes.front();
    m.powerRatio = m.sim->powerRatio;
    m.wsRatio = m.sim->wsRatio;
    m.runBusy = busySeconds(probes.front());
    m.cells = probe.jobs.size() + probe.alone.size();

    if (args.trace)
        replayLayers(runner, probe, *m.sim, tracer, rep);
    finish(args, m, runner, tracer, rep);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "pra_perfbench: %s\n"
                 "usage: pra_perfbench --workload "
                 "paper_grid|scale_grid|ws_mixes|modelcheck\n"
                 "         [--seed N] [--seconds S] [--jobs N] "
                 "[--trace 1 --trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                args.workload = value;
                used = value.size();
            } else if (flag == "--seed") {
                args.seed = std::stoll(value, &used);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value, &used);
            } else if (flag == "--trace") {
                args.trace = std::stoi(value, &used) != 0;
            } else if (flag == "--jobs") {
                const long jobs = std::stol(value, &used);
                if (jobs < 1 || jobs > 256)
                    usage("--jobs wants 1..256");
                args.jobs = static_cast<unsigned>(jobs);
            } else if (flag == "--trace-out") {
                args.traceOut = value;
                used = value.size();
            } else {
                usage(("unknown flag " + flag).c_str());
            }
            if (used != value.size())
                usage(("malformed value for " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("malformed value for " + flag).c_str());
        }
    }
    static const std::set<std::string> kWorkloads = {
        "paper_grid", "scale_grid", "ws_mixes", "modelcheck"};
    if (kWorkloads.count(args.workload) == 0)
        usage("unknown or missing --workload");
    if (args.trace && args.traceOut.empty())
        usage("--trace 1 needs --trace-out FILE");
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        usage("--seconds wants (0, 600]");
    if (args.jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        args.jobs = std::min(4u, hw > 0 ? hw : 1u);
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Every timed cell must simulate: the persistent result cache would
    // replay cells (with zero engine counters), and the audit, replay
    // and engine knobs would change what is timed. This touches only
    // this process's environment.
    setenv("PRA_NO_CACHE", "1", 1);
    for (const char *knob : {"PRA_COLD_REPLAY", "PRA_AUDIT", "PRA_AUDIT_REPLAY",
                             "PRA_AUDIT_STRIDE", "PRA_ENGINE", "PRA_TRACE",
                             "PRA_JOBS"})
        unsetenv(knob);

    Report rep;
    try {
        if (args.workload == "modelcheck")
            runModelcheck(args, rep);
        else
            runSimWorkload(args, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pra_perfbench: %s\n", e.what());
        return 1;
    }
    rep.print();
    return 0;
}
