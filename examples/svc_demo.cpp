/**
 * @file
 * Multi-tenant service demo and determinism self-check: amplify a
 * synthesized trace to millions of records spread over a large tenant
 * and user population, stream it through aiwc::svc twice — once with a
 * 1-thread drain, once with 8 — and verify that every mid-stream
 * snapshot digest is byte-identical while RSS stays on a plateau.
 * The first batch each tenant sends travels through the real wire
 * format (encodeJobBatch -> offerFrame), so the codec sits on the hot
 * path too, not just in unit tests.
 *
 * Usage: svc_demo [records] [tenants] [users] [batch] [--json=path]
 *   records  total JobRecords to ingest per run   (default 10000000)
 *   tenants  tenant population                    (default 128)
 *   users    distinct simulated users             (default 2000000)
 *   batch    records per enqueued batch           (default 512)
 *   --json   write a machine-readable report (CI artifact)
 *
 * Exit status: 0 when all milestone digests match across thread
 * counts, 1 otherwise.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "aiwc/common/parallel.hh"
#include "aiwc/svc/service.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace
{

/** SplitMix64: deterministic user assignment, no RNG state to carry. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Current VmRSS in KiB (0 where /proc is unavailable). */
std::size_t
rssKiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return static_cast<std::size_t>(
                std::strtoull(line.c_str() + 6, nullptr, 10));
    }
    return 0;
}

/** FNV-1a fold helpers for the snapshot digest. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof v);
    }

    void
    f64(double v)
    {
        bytes(&v, sizeof v);
    }
};

void
foldSnapshot(Digest &d, const aiwc::stream::SnapshotReport &snap)
{
    d.u64(snap.rows);
    d.u64(snap.gpu_jobs);
    d.u64(snap.cpu_jobs);
    d.u64(snap.users);
    d.f64(snap.top5_job_share);
    d.f64(snap.top20_job_share);
    d.f64(snap.median_jobs_per_user);
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        d.f64(snap.gpu_runtime_min.quantile(q));
        d.f64(snap.cpu_runtime_min.quantile(q));
        d.f64(snap.gpu_wait_s.quantile(q));
        d.f64(snap.sm_pct.quantile(q));
        d.f64(snap.membw_pct.quantile(q));
        d.f64(snap.avg_watts.quantile(q));
        d.f64(snap.max_watts.quantile(q));
    }
    for (const auto &hit : snap.top_users_by_gpu_hours) {
        d.u64(hit.key);
        d.f64(hit.count);
        d.f64(hit.error);
    }
}

struct Milestone
{
    std::uint64_t rows = 0;
    std::uint64_t digest = 0;
    std::size_t rss_kib = 0;
    std::size_t sketch_bytes = 0;
};

struct RunResult
{
    std::vector<Milestone> milestones;
    double wall_s = 0.0;
};

/** One full ingest run at the given drain-thread count. */
RunResult
runOnce(const std::vector<aiwc::core::JobRecord> &base,
        std::uint64_t records, std::uint64_t tenants,
        std::uint64_t users, std::size_t batch_size, int threads)
{
    using namespace aiwc;
    setGlobalThreadCount(threads);

    svc::Service service;

    std::vector<std::vector<core::JobRecord>> pending(tenants);
    const std::uint64_t milestone_every =
        std::max<std::uint64_t>(records / 10, 1);
    // Drain often enough that queued batches never pile up into an
    // unbounded backlog: bounded memory is the whole point.
    const std::uint64_t drain_every =
        std::max<std::uint64_t>(batch_size * tenants, 4096);

    std::uint64_t wire_batches = 0;
    const auto flush = [&](std::uint64_t tenant) {
        auto &queue = pending[tenant];
        if (queue.empty())
            return;
        // The first batch per tenant exercises the wire codec end to
        // end; later ones take the in-process fast path.
        if (wire_batches < tenants) {
            ++wire_batches;
            const auto frame = svc::encodeJobBatch(tenant, queue);
            auto result = service.offerFrame(frame);
            while (!result.accepted()) {
                service.drain();
                result = service.offerFrame(frame);
            }
        } else {
            while (service.enqueueBatch(tenant, std::move(queue)) !=
                   svc::Admission::Accepted)
                service.drain();
        }
        queue.clear();
    };

    RunResult result;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < records; ++i) {
        core::JobRecord rec = base[i % base.size()];
        rec.id = static_cast<JobId>(i);
        rec.user = static_cast<UserId>(splitmix64(i) % users);
        const std::uint64_t tenant = rec.user % tenants;
        pending[tenant].push_back(std::move(rec));
        if (pending[tenant].size() >= batch_size)
            flush(tenant);
        if ((i + 1) % drain_every == 0)
            service.drain();
        if ((i + 1) % milestone_every == 0 || i + 1 == records) {
            // Quiesce, then digest every tenant in ascending order.
            for (std::uint64_t t = 0; t < tenants; ++t)
                flush(t);
            service.drain();
            Digest digest;
            std::size_t sketch_bytes = 0;
            for (std::uint64_t t = 0; t < tenants; ++t) {
                if (!service.hasTenant(t))
                    continue;
                const auto snap = service.snapshot(t);
                foldSnapshot(digest, snap);
                sketch_bytes += snap.sketch_bytes;
            }
            result.milestones.push_back(
                {i + 1, digest.h, rssKiB(), sketch_bytes});
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_s =
        std::chrono::duration<double>(t1 - t0).count();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace aiwc;

    std::uint64_t records = 10'000'000;
    std::uint64_t tenants = 128;
    std::uint64_t users = 2'000'000;
    std::size_t batch_size = 512;
    std::string json_path;
    int positional = 0;
    for (int a = 1; a < argc; ++a) {
        if (std::strncmp(argv[a], "--json=", 7) == 0) {
            json_path = argv[a] + 7;
            continue;
        }
        const std::uint64_t v =
            std::strtoull(argv[a], nullptr, 10);
        switch (positional++) {
          case 0: records = v; break;
          case 1: tenants = v; break;
          case 2: users = v; break;
          case 3: batch_size = static_cast<std::size_t>(v); break;
          default: break;
        }
    }
    if (records == 0 || tenants == 0 || users == 0 ||
        batch_size == 0) {
        std::cerr << "svc_demo: all sizes must be positive\n";
        return 1;
    }

    // A small synthesized trace supplies realistic record shapes; the
    // amplification loop remaps ids/users to reach service scale.
    workload::SynthesisOptions synth;
    synth.scale = 0.02;
    synth.seed = 7;
    const auto profile = workload::CalibrationProfile::supercloud();
    const workload::TraceSynthesizer synthesizer(profile, synth);
    std::vector<core::JobRecord> base;
    synthesizer.runStreaming([&](core::JobRecord &&rec) {
        base.push_back(std::move(rec));
    });
    std::cout << "svc_demo: " << records << " records, " << tenants
              << " tenants, " << users << " users, batch "
              << batch_size << " (base trace: " << base.size()
              << " synthesized records)\n\n";

    const auto serial =
        runOnce(base, records, tenants, users, batch_size, 1);
    const auto parallel =
        runOnce(base, records, tenants, users, batch_size, 8);

    bool match = serial.milestones.size() == parallel.milestones.size();
    std::cout << std::left << std::setw(12) << "rows"
              << std::setw(20) << "digest" << std::setw(12)
              << "rss-1t MiB" << std::setw(12) << "rss-8t MiB"
              << std::setw(12) << "sketch MiB" << "match\n";
    for (std::size_t m = 0;
         m < serial.milestones.size() && match; ++m) {
        const auto &s = serial.milestones[m];
        const auto &p = parallel.milestones[m];
        const bool ok = s.rows == p.rows && s.digest == p.digest;
        match = match && ok;
        std::cout << std::left << std::setw(12) << s.rows << std::hex
                  << std::setw(20) << s.digest << std::dec
                  << std::setw(12) << s.rss_kib / 1024
                  << std::setw(12) << p.rss_kib / 1024
                  << std::setw(12)
                  << s.sketch_bytes / (1024.0 * 1024.0)
                  << (ok ? "yes" : "NO") << '\n';
    }
    std::cout << "\nwall: " << std::fixed << std::setprecision(2)
              << serial.wall_s << " s at 1 thread, "
              << parallel.wall_s << " s at 8 threads\n"
              << (match
                      ? "determinism check PASSED: snapshots are "
                        "byte-identical across drain thread counts\n"
                      : "determinism check FAILED\n");

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n  \"schema\": \"aiwc-svc-demo-report-v1\",\n"
            << "  \"records\": " << records << ",\n"
            << "  \"tenants\": " << tenants << ",\n"
            << "  \"users\": " << users << ",\n"
            << "  \"digests_match\": " << (match ? "true" : "false")
            << ",\n  \"wall_s_1t\": " << serial.wall_s
            << ",\n  \"wall_s_8t\": " << parallel.wall_s
            << ",\n  \"milestones\": [";
        for (std::size_t m = 0; m < serial.milestones.size(); ++m) {
            const auto &s = serial.milestones[m];
            out << (m ? "," : "") << "\n    {\"rows\": " << s.rows
                << ", \"digest\": \"" << std::hex << s.digest
                << std::dec << "\", \"rss_kib\": " << s.rss_kib
                << ", \"sketch_bytes\": " << s.sketch_bytes << "}";
        }
        out << "\n  ]\n}\n";
        std::cout << "report written to " << json_path << '\n';
    }
    return match ? 0 : 1;
}
