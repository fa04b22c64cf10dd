/**
 * @file
 * uvmsim_perf -- one measured pass of a benchmark workload.
 *
 * bench/perf/run.py drives this binary; bench/perf/README.md names the
 * workloads and metrics.  One invocation builds the workload's cell
 * list (one cell = one Simulator::run), runs every cell once, checks
 * each cell's statistics, and prints one JSON line: per-cell host
 * times and verdicts, a digest of every cell's RunResult::stats, and
 * the simulated statistics summed over the pass.
 *
 *   uvmsim_perf --workload=W --seed=N --scale=F [--jobs=N]
 *               [--replay=PATH] [--oversubscription=PCT] [--mutate=STAT]
 *               [--trace --out=PATH]
 *
 * Without --trace the cells run as one RunExecutor::runBatch on --jobs
 * threads; a worker runs its jobs back to back, so the Progress
 * callback's start times also give each cell's end (a worker's last
 * cell is timed by its thread's CPU clock).  With --trace each cell
 * runs twice, serially through Simulator::run: once plain, as the
 * executor's workers run it, and once on a workload wrapped in
 * forwarding decorators that time every call into the generator
 * (Workload::setup / nextKernel, Kernel::nextThreadBlock,
 * WarpTrace::next).  The plain run is the baseline of the tracing
 * overhead and must give the same statistics.  Spans stay in memory
 * and go to --out at exit.
 *
 * Host time is read only through nowNs() and threadCpuNs() and never
 * reaches RunResult::stats: digests and sums cover simulated values
 * only.
 */

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/run_executor.hh"
#include "api/simulator.hh"
#include "core/policies.hh"
#include "gpu/kernel.hh"
#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/options.hh"

namespace uvmsim
{
namespace
{

/** Host monotonic clock in ns (the same clock as Python's
 *  time.monotonic_ns, so run.py can measure spawn-to-first-cell). */
std::uint64_t
nowNs()
{
    // lint:allow(det): benchmark host timing; never reaches RunResult::stats
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

/** CPU time a (live) thread has used, in ns. */
std::uint64_t
threadCpuNs(pthread_t thread)
{
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(thread, &clock) != 0 ||
        // lint:allow(det): benchmark host timing; never reaches RunResult::stats
        clock_gettime(clock, &ts) != 0)
        fatal("cannot read a worker thread's CPU clock");
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// ------------------------------------------------------------ workloads

/** The eviction policies of the paper's standard matrix. */
const std::vector<std::string> &
paperPolicies()
{
    static const std::vector<std::string> names = {
        "LRU4K", "Re", "SLe", "TBNe", "LRU2MB", "MRU4K"};
    return names;
}

/**
 * The cell list of a benchmark workload.  For `replay` the cells
 * alternate: even cells replay the recorded trace, odd cells run the
 * synthetic workload it was recorded from under the same config.
 */
std::vector<RunJob>
buildCells(const std::string &workload, const Options &opts)
{
    const std::uint64_t seed = opts.getUint("seed", 1);
    WorkloadParams params;
    params.seed = seed;
    params.size_scale = opts.getDouble("scale", 1.0);

    std::vector<RunJob> cells;
    auto add = [&](const std::string &name, const std::string &policy,
                   double oversub, const WorkloadParams &p) {
        RunJob job{name, SimConfig{}, p};
        // uvmsim_sweep's defaults: TBNp before and after the latch.
        job.config.prefetcher_after = PrefetcherKind::treeBasedNeighborhood;
        job.config.seed = seed;
        job.config.eviction = evictionFromString(policy);
        job.config.oversubscription_percent = oversub;
        cells.push_back(std::move(job));
    };

    if (workload == "paper-sweep") {
        for (const std::string &name : allWorkloadNames())
            for (const std::string &policy : paperPolicies())
                add(name, policy, 110.0, params);
    } else if (workload == "resident") {
        std::vector<std::string> names = allWorkloadNames();
        names.push_back("dbbuffer");
        names.push_back("llminfer");
        for (const std::string &name : names)
            add(name, "LRU4K", 0.0, params);
    } else if (workload == "thrash") {
        for (const std::string &name : {"dbbuffer", "llminfer"})
            for (const std::string &policy : paperPolicies())
                add(name, policy, 150.0, params);
    } else if (workload == "replay") {
        WorkloadParams recorded = params;
        recorded.trace_path = opts.get("replay");
        if (recorded.trace_path.empty())
            fatal("--workload=replay needs the recorded trace "
                  "(--replay=PATH)");
        for (const std::string &policy : paperPolicies()) {
            add("trace", policy, 110.0, recorded);
            add("dbbuffer", policy, 110.0, params);
        }
    } else {
        fatal("unknown benchmark workload '%s' "
              "(paper-sweep|resident|thrash|replay)",
              workload.c_str());
    }

    // The 0%-oversubscription twins of a cell list (traced runs).
    if (opts.has("oversubscription"))
        for (RunJob &job : cells)
            job.config.oversubscription_percent =
                opts.getDouble("oversubscription", 0.0);
    return cells;
}

// --------------------------------------------------------------- checks

/** FNV-1a over raw bytes. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t fnvBasis = 14695981039346656037ull;

/** Digest of every statistic's name and exact value bits. */
std::uint64_t
statsDigest(const RunResult &r)
{
    std::uint64_t h = fnvBasis;
    for (const auto &[name, value] : r.stats) {
        h = fnv1a(h, name.data(), name.size());
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        h = fnv1a(h, &bits, sizeof(bits));
    }
    return h;
}

/**
 * The identities every cell's statistics must satisfy; returns the
 * first one violated, or "" when the cell is consistent.
 */
std::string
checkCell(const RunResult &r, std::uint64_t total_kernels,
          bool expect_no_evictions)
{
    const double page = static_cast<double>(pageSize);
    const double migrated = r.stat("gmmu.pages_migrated");
    const double evicted = r.stat("gmmu.pages_evicted");
    if (r.stat("pcie.h2d.bytes") != page * migrated)
        return "pcie.h2d.bytes != 4096 x gmmu.pages_migrated";
    if (r.stat("pcie.d2h.bytes") != page * r.stat("gmmu.pages_written_back"))
        return "pcie.d2h.bytes != 4096 x gmmu.pages_written_back";
    if (r.stat("frames.allocations") != migrated)
        return "frames.allocations != gmmu.pages_migrated";
    if (r.stat("frames.frees") != evicted)
        return "frames.frees != gmmu.pages_evicted";
    if (r.stat("gpu.kernels") != static_cast<double>(total_kernels))
        return "gpu.kernels != Workload::totalKernels()";
    if (expect_no_evictions && evicted != 0)
        return "evictions in a workload that fits";
    return "";
}

/** "sm12.l1.hits" -> "sm.l1.hits": per-SM stats sum across SMs. */
std::string
ledgerName(const std::string &name)
{
    if (name.rfind("sm", 0) != 0)
        return name;
    std::size_t i = 2;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9')
        ++i;
    if (i == 2 || i >= name.size() || name[i] != '.')
        return name;
    return "sm" + name.substr(i);
}

/** Add a cell's statistics into the pass-wide sums. */
void
addToLedger(std::map<std::string, double> &sums, const RunResult &r)
{
    for (const auto &[name, value] : r.stats)
        sums[ledgerName(name)] += value;
    // Means do not sum; carry their weights so run.py can average.
    const double gbps = r.stat("pcie.h2d.avg_bandwidth_gbps");
    if (gbps > 0)
        sums["pcie.h2d.busy_s"] += r.stat("pcie.h2d.bytes") / (gbps * 1e9);
    sums["gmmu.walk_queue_delay_total_ns"] +=
        r.stat("gmmu.walk_queue_delay_ns") * r.stat("gmmu.page_walks");
}

// -------------------------------------------------------------- tracing

/** One timed call, kept in memory until the pass ends.  Spans of one
 *  cell share its index; they nest by time. */
struct Span
{
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::size_t cell = 0;
};

/** RAII span in a log; end() closes it early and returns its duration. */
class ScopedSpan
{
  public:
    ScopedSpan(std::vector<Span> &log, std::string name, std::size_t cell)
        : log_(log), index_(log.size())
    {
        log.push_back({std::move(name), nowNs(), 0, cell});
    }

    ~ScopedSpan() { end(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t
    end()
    {
        Span &s = log_[index_];
        if (!ended_) {
            s.dur_ns = nowNs() - s.start_ns;
            ended_ = true;
        }
        return s.dur_ns;
    }

  private:
    std::vector<Span> &log_;
    std::size_t index_;
    bool ended_ = false;
};

/** Host time in one cell's generator entry points, filled by the
 *  decorators below. */
struct GenLedger
{
    std::uint64_t ns = 0;       //!< summed over every timed call
    std::uint64_t calls = 0;    //!< timed calls, for the clock correction
    std::uint64_t warp_ops = 0; //!< WarpTrace::next calls that gave an op
};

/** Forwards WarpTrace::next, timing each call (too many for spans). */
class TimedWarpTrace : public WarpTrace
{
  public:
    TimedWarpTrace(std::unique_ptr<WarpTrace> inner, GenLedger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {}

    bool
    next(WarpOp &op) override
    {
        const std::uint64_t t0 = nowNs();
        const bool more = inner_->next(op);
        ledger_.ns += nowNs() - t0;
        ++ledger_.calls;
        ledger_.warp_ops += more ? 1 : 0;
        return more;
    }

  private:
    std::unique_ptr<WarpTrace> inner_;
    GenLedger &ledger_;
};

/** Forwards Kernel::nextThreadBlock and wraps every warp it yields. */
class TimedKernel : public Kernel
{
  public:
    TimedKernel(Kernel &inner, GenLedger &ledger)
        : inner_(inner), ledger_(ledger)
    {}

    std::string name() const override { return inner_.name(); }

    std::unique_ptr<ThreadBlock>
    nextThreadBlock() override
    {
        const std::uint64_t t0 = nowNs();
        std::unique_ptr<ThreadBlock> tb = inner_.nextThreadBlock();
        ledger_.ns += nowNs() - t0;
        ++ledger_.calls;
        if (tb)
            for (std::unique_ptr<WarpTrace> &warp : tb->warps)
                warp = std::make_unique<TimedWarpTrace>(std::move(warp),
                                                        ledger_);
        return tb;
    }

  private:
    Kernel &inner_;
    GenLedger &ledger_;
};

/** Forwards a Workload, recording a span around setup and nextKernel. */
class TimedWorkload : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> inner, GenLedger &ledger,
                  std::vector<Span> &spans, std::size_t cell)
        : inner_(std::move(inner)), ledger_(ledger), spans_(spans),
          cell_(cell)
    {}

    std::string name() const override { return inner_->name(); }

    std::uint64_t
    totalKernels() const override
    {
        return inner_->totalKernels();
    }

    void
    setup(ManagedSpace &space) override
    {
        ScopedSpan span(spans_, "Workload::setup", cell_);
        inner_->setup(space);
        ledger_.ns += span.end();
        ++ledger_.calls;
    }

    Kernel *
    nextKernel() override
    {
        ScopedSpan span(spans_, "Workload::nextKernel", cell_);
        Kernel *k = inner_->nextKernel();
        ledger_.ns += span.end();
        ++ledger_.calls;
        if (k == nullptr)
            return nullptr;
        // Like the inner kernel, valid until the next nextKernel().
        kernel_.emplace(*k, ledger_);
        return &*kernel_;
    }

  private:
    std::unique_ptr<Workload> inner_;
    GenLedger &ledger_;
    std::vector<Span> &spans_;
    std::size_t cell_;
    std::optional<TimedKernel> kernel_;
};

/**
 * What timing one call costs.  A decorator reads the clock before and
 * after the call it forwards: about one read's worth (`inside_ns`)
 * falls between the two samples and so lands in the generator's time,
 * and both reads (`total_ns`) land in Simulator::run's.  Measured on
 * empty timed calls.
 */
struct ClockCost
{
    double inside_ns = 0;
    double total_ns = 0;
};

ClockCost
calibrateClock()
{
    constexpr std::uint64_t n = 1u << 20;
    std::uint64_t inside = 0;
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t t = nowNs();
        inside += nowNs() - t;
    }
    const std::uint64_t total = nowNs() - t0;
    return {static_cast<double>(inside) / n, static_cast<double>(total) / n};
}

/** `ns` less an estimated cost, never below 0. */
std::uint64_t
lessCost(std::uint64_t ns, double cost_ns)
{
    const auto cost = static_cast<std::uint64_t>(cost_ns);
    return ns > cost ? ns - cost : 0;
}

// ---------------------------------------------------------------- passes

/** What one cell produced. */
struct CellOutcome
{
    RunResult result;
    std::uint64_t host_ns = 0;
    // Traced passes only; run_ns and gen_ns have the decorators' clock
    // reads taken out.
    std::uint64_t run_ns = 0;      //!< Simulator::run span
    std::uint64_t gen_ns = 0;      //!< time inside the generator
    std::uint64_t warp_ops = 0;
    std::uint64_t untraced_ns = 0; //!< the same cell run plain
    bool same_as_untraced = true;  //!< plain run gave identical stats
};

struct Pass
{
    std::vector<CellOutcome> cells;
    std::uint64_t first_cell_ns = 0; //!< monotonic time the first cell began
    std::uint64_t wall_ns = 0;
};

Pass
runBatchPass(const std::vector<RunJob> &jobs, std::size_t threads)
{
    RunExecutor exec(threads);
    const std::size_t n = jobs.size();
    std::vector<std::uint64_t> start(n, 0);
    std::vector<std::uint64_t> cpu_start(n, 0);
    std::vector<pthread_t> worker(n);
    const std::uint64_t t0 = nowNs();
    std::vector<RunResult> results = exec.runBatch(
        jobs, [&start, &cpu_start, &worker](const RunJob &, std::size_t i) {
            worker[i] = pthread_self();
            cpu_start[i] = threadCpuNs(worker[i]);
            start[i] = nowNs();
        });
    const std::uint64_t t1 = nowNs();

    // A worker runs its jobs back to back: a cell ends when the next
    // cell on the same worker starts.  A worker's last cell has no
    // successor, and the batch returns only when the slowest worker is
    // done, so that cell is timed by its thread's CPU clock instead
    // (the workers stay alive until `exec` is destroyed).
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (start[i] == 0)
            fatal("cell %zu never started (duplicate job key?)", i);
        order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&start](std::size_t a, std::size_t b) {
                  return start[a] < start[b];
              });
    Pass pass;
    pass.cells.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = order[k];
        std::uint64_t host_ns = 0;
        for (std::size_t m = k + 1; m < n && host_ns == 0; ++m)
            if (pthread_equal(worker[order[m]], worker[i]))
                host_ns = start[order[m]] - start[i];
        if (host_ns == 0)
            host_ns = threadCpuNs(worker[i]) - cpu_start[i];
        pass.cells[i].host_ns = host_ns;
        pass.cells[i].result = std::move(results[i]);
    }
    pass.first_cell_ns = start[order[0]];
    pass.wall_ns = t1 - t0;
    return pass;
}

Pass
runTracedPass(const std::vector<RunJob> &jobs, std::vector<Span> &spans)
{
    const ClockCost clock = calibrateClock();
    Pass pass;
    pass.cells.resize(jobs.size());
    const std::uint64_t t0 = nowNs();
    pass.first_cell_ns = t0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const RunJob &job = jobs[i];
        CellOutcome &cell = pass.cells[i];

        // The plain run goes first on every other cell, so neither run
        // always follows the other into a warm allocator.
        RunResult plain;
        const auto runPlain = [&] {
            const std::uint64_t p0 = nowNs();
            plain = runBenchmark(job.workload, job.config, job.params);
            cell.untraced_ns = nowNs() - p0;
        };
        if (i % 2 == 0)
            runPlain();

        GenLedger gen;
        {
            ScopedSpan cell_span(spans, "cell " + job.workload + "/" +
                                            toString(job.config.eviction),
                                 i);
            std::unique_ptr<Workload> inner;
            {
                ScopedSpan make(spans, "makeWorkload", i);
                inner = makeWorkload(job.workload, job.params);
            }
            TimedWorkload workload(std::move(inner), gen, spans, i);
            Simulator sim(job.config);
            ScopedSpan run(spans, "Simulator::run", i);
            cell.result = sim.run(workload);
            cell.run_ns = run.end();
            cell.host_ns = cell_span.end();
        }

        if (i % 2 == 1)
            runPlain();
        cell.same_as_untraced = plain.stats == cell.result.stats;
        const double calls = static_cast<double>(gen.calls);
        cell.gen_ns = lessCost(gen.ns, clock.inside_ns * calls);
        cell.run_ns = lessCost(cell.run_ns, clock.total_ns * calls);
        cell.warp_ops = gen.warp_ops;
    }
    pass.wall_ns = nowNs() - t0;
    return pass;
}

// ---------------------------------------------------------------- output

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Chrome trace_event JSON (chrome://tracing, Perfetto). */
void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write spans to '%s'", path.c_str());
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\": " << jsonString(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << jsonNumber(static_cast<double>(s.start_ns) / 1e3)
            << ", \"dur\": "
            << jsonNumber(static_cast<double>(s.dur_ns) / 1e3)
            << ", \"args\": {\"cell\": " << s.cell << "}}";
    }
    out << "\n]}\n";
    if (!out)
        fatal("short write to '%s'", path.c_str());
}

int
perfMain(int argc, char **argv)
{
    const Options opts(argc, argv);
    const std::string workload = opts.get("workload");
    const std::vector<RunJob> jobs = buildCells(workload, opts);
    const bool traced = opts.getBool("trace");
    const std::string mutate = opts.get("mutate");
    if (traced && !opts.has("out"))
        fatal("--trace needs --out=PATH for its spans");

    // Set-up: the kernel count each cell must complete.
    std::map<std::string, std::uint64_t> total_kernels;
    for (const RunJob &job : jobs)
        if (!total_kernels.count(job.workload))
            total_kernels[job.workload] =
                makeWorkload(job.workload, job.params)->totalKernels();

    std::vector<Span> spans;
    Pass pass =
        traced ? runTracedPass(jobs, spans)
               : runBatchPass(jobs, std::max<std::uint64_t>(
                                        1, opts.getUint("jobs", 1)));

    std::map<std::string, double> sums;
    std::uint64_t pass_digest = fnvBasis;
    std::vector<std::string> verdicts(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        RunResult &r = pass.cells[i].result;
        if (!mutate.empty()) {
            auto it = r.stats.find(mutate);
            if (it == r.stats.end())
                fatal("--mutate: no statistic named '%s'", mutate.c_str());
            it->second += 1;
        }
        const std::uint64_t digest = statsDigest(r);
        pass_digest = fnv1a(pass_digest, &digest, sizeof(digest));
        verdicts[i] = checkCell(r, total_kernels.at(jobs[i].workload),
                                jobs[i].config.oversubscription_percent <=
                                    100.0);
        if (verdicts[i].empty() && !pass.cells[i].same_as_untraced)
            verdicts[i] = "traced stats differ from the untraced run";
        addToLedger(sums, r);
    }
    // Replay cells must match their synthetic twins exactly.
    if (workload == "replay")
        for (std::size_t i = 0; i + 1 < jobs.size(); i += 2)
            if (pass.cells[i].result.stats != pass.cells[i + 1].result.stats)
                for (std::size_t k : {i, i + 1})
                    if (verdicts[k].empty())
                        verdicts[k] = "replay stats differ from the "
                                      "synthetic twin";

    if (traced)
        writeSpans(opts.get("out"), spans);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    std::ostringstream out;
    out << "{\"first_cell_mono_ns\": " << pass.first_cell_ns
        << ", \"wall_ns\": " << pass.wall_ns
        << ", \"peak_rss_kib\": " << usage.ru_maxrss
        << ", \"digest\": \"" << hex64(pass_digest) << "\", \"cells\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CellOutcome &c = pass.cells[i];
        out << (i ? ", " : "") << "{\"workload\": "
            << jsonString(jobs[i].workload) << ", \"policy\": "
            << jsonString(toString(jobs[i].config.eviction))
            << ", \"host_ns\": " << c.host_ns
            << ", \"error\": " << jsonString(verdicts[i])
            << ", \"pages_migrated\": "
            << jsonNumber(c.result.stat("gmmu.pages_migrated"));
        if (traced)
            out << ", \"run_ns\": " << c.run_ns
                << ", \"gen_ns\": " << c.gen_ns
                << ", \"warp_ops\": " << c.warp_ops
                << ", \"untraced_ns\": " << c.untraced_ns;
        out << "}";
    }
    out << "], \"sums\": {";
    bool first = true;
    for (const auto &[name, value] : sums) {
        out << (first ? "" : ", ") << jsonString(name) << ": "
            << jsonNumber(value);
        first = false;
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    return 0;
}

} // namespace
} // namespace uvmsim

int
main(int argc, char **argv)
{
    return uvmsim::perfMain(argc, argv);
}
