/**
 * @file
 * aiwc-trace — convert, inspect, and fingerprint binary trace files.
 *
 * CSV is the interchange format a production Slurm + nvidia-smi
 * pipeline exports; the binary trace (aiwc/fmt/trace.hh) is the
 * working format the analyzers load. This tool is the bridge:
 *
 *   aiwc-trace import <in.csv> <out.aiwt>    CSV -> binary trace
 *   aiwc-trace export <in.aiwt> <out.csv>    binary trace -> CSV
 *   aiwc-trace info <in.aiwt>                header + table summary
 *   aiwc-trace digest <in.aiwt|in.csv>       content digest (hex)
 *   aiwc-trace synth <scale> <seed> <out.aiwt>  synthesized study
 *
 * digest prints the canonical content digest of the dataset however
 * it was stored, so `digest a.csv` == `digest a.aiwt` proves a
 * conversion was lossless — the CI round-trip gate scripts exactly
 * that comparison. Exit codes: 0 success, 1 usage, 2 bad input.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

#include "aiwc/core/csv_loader.hh"
#include "aiwc/fmt/trace.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace
{

using namespace aiwc;

int
usage()
{
    std::cerr
        << "usage: aiwc-trace import <in.csv> <out.aiwt>\n"
        << "       aiwc-trace export <in.aiwt> <out.csv>\n"
        << "       aiwc-trace info <in.aiwt>\n"
        << "       aiwc-trace digest <in.aiwt|in.csv>\n"
        << "       aiwc-trace synth <scale> <seed> <out.aiwt>\n";
    return 1;
}

std::string
hexDigest(std::uint64_t digest)
{
    std::ostringstream os;
    os << std::hex << std::setfill('0') << std::setw(16) << digest;
    return os.str();
}

/** Load a dataset from CSV; exits 2 on unreadable input or header. */
bool
loadCsv(const std::string &path, core::Dataset &out)
{
    std::ifstream file(path);
    if (!file) {
        std::cerr << "aiwc-trace: cannot read " << path << "\n";
        return false;
    }
    std::string error;
    out = core::loadDatasetCsv(file, &error);
    if (!error.empty()) {
        std::cerr << "aiwc-trace: " << path << ": " << error << "\n";
        return false;
    }
    return true;
}

/** Load a dataset from a binary trace; exits 2 on any reject. */
bool
loadTrace(const std::string &path, core::Dataset &out)
{
    fmt::TraceLoadResult result = fmt::loadTraceFile(path);
    if (!result.ok()) {
        std::cerr << "aiwc-trace: " << path << ": "
                  << toString(result.status)
                  << (result.error.empty() ? "" : ": " + result.error)
                  << "\n";
        return false;
    }
    out = std::move(result.dataset);
    return true;
}

/** True when the file leads with the trace magic (else treat as CSV). */
bool
looksLikeTrace(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    char lead[4] = {};
    file.read(lead, sizeof lead);
    if (file.gcount() != sizeof lead)
        return false;
    const auto b = [&](int i) {
        return static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(lead[i]));
    };
    const std::uint32_t magic =
        b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
    return magic == fmt::trace_magic;
}

int
cmdImport(const std::string &csv_path, const std::string &trace_path)
{
    core::Dataset dataset;
    if (!loadCsv(csv_path, dataset))
        return 2;
    std::string error;
    if (!fmt::writeTraceFile(trace_path, dataset, &error)) {
        std::cerr << "aiwc-trace: " << error << "\n";
        return 2;
    }
    std::cout << "imported " << dataset.size() << " rows, "
              << dataset.uniqueUsers() << " users -> " << trace_path
              << "\ndigest " << hexDigest(fmt::contentDigest(dataset))
              << "\n";
    return 0;
}

int
cmdExport(const std::string &trace_path, const std::string &csv_path)
{
    core::Dataset dataset;
    if (!loadTrace(trace_path, dataset))
        return 2;
    std::ofstream file(csv_path);
    if (!file) {
        std::cerr << "aiwc-trace: cannot write " << csv_path << "\n";
        return 2;
    }
    dataset.writeCsv(file);
    std::cout << "exported " << dataset.size() << " rows -> "
              << csv_path << "\n";
    return 0;
}

int
cmdInfo(const std::string &trace_path)
{
    core::Dataset dataset;
    if (!loadTrace(trace_path, dataset))
        return 2;
    const core::ColumnTable &cols = dataset.columns();
    std::size_t gpu_summaries = 0;
    std::size_t ts_rows = 0;
    for (const core::JobRecord &r : dataset.records()) {
        gpu_summaries += r.per_gpu.size();
        ts_rows += r.has_timeseries ? 1 : 0;
    }
    std::cout << trace_path << ": trace v" << fmt::trace_version << "\n"
              << "  rows           " << dataset.size() << "\n"
              << "  users          " << cols.users().size() << "\n"
              << "  job types      " << cols.jobTypes().size() << "\n"
              << "  gpu summaries  " << gpu_summaries << "\n"
              << "  timeseries     " << ts_rows << "\n"
              << "  digest         "
              << hexDigest(fmt::contentDigest(dataset)) << "\n";
    return 0;
}

int
cmdDigest(const std::string &path)
{
    core::Dataset dataset;
    const bool ok = looksLikeTrace(path) ? loadTrace(path, dataset)
                                         : loadCsv(path, dataset);
    if (!ok)
        return 2;
    std::cout << hexDigest(fmt::contentDigest(dataset)) << "\n";
    return 0;
}

int
cmdSynth(const std::string &scale, const std::string &seed,
         const std::string &trace_path)
{
    workload::SynthesisOptions options;
    options.scale = std::stod(scale);
    options.seed = std::stoull(seed);
    const auto profile = workload::CalibrationProfile::supercloud();
    auto result = workload::TraceSynthesizer(profile, options).run();
    std::string error;
    if (!fmt::writeTraceFile(trace_path, result.dataset, &error)) {
        std::cerr << "aiwc-trace: " << error << "\n";
        return 2;
    }
    std::cout << "synthesized " << result.dataset.size() << " rows -> "
              << trace_path << "\ndigest "
              << hexDigest(fmt::contentDigest(result.dataset)) << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "import" && argc == 4)
        return cmdImport(argv[2], argv[3]);
    if (cmd == "export" && argc == 4)
        return cmdExport(argv[2], argv[3]);
    if (cmd == "info" && argc == 3)
        return cmdInfo(argv[2]);
    if (cmd == "digest" && argc == 3)
        return cmdDigest(argv[2]);
    if (cmd == "synth" && argc == 5)
        return cmdSynth(argv[2], argv[3], argv[4]);
    return usage();
}
