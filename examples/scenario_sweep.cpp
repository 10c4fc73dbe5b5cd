/**
 * @file
 * Heterogeneous scenario sweep demo and determinism self-check.
 *
 * Loads a machine-class catalog from a `.scn` file, synthesizes a
 * characterized trace, and sweeps every {machine class x task mix x
 * policy} cell into an energy-vs-SLA frontier report. The report is
 * produced three times — 1-thread sweep over the CSV-parsed dataset,
 * 8-thread sweep over the same dataset, and 8-thread sweep over the
 * binary-trace (.aiwt) round trip of that dataset — and all three must
 * be byte-identical.
 *
 * Usage: scenario_sweep [scale] [scn_path] [machines_per_cell] [--json=path]
 *   scale              synthesis scale             (default 0.02)
 *   scn_path           machine/task class catalog  (default scenarios/fleet.scn)
 *   machines_per_cell  fleet size per sweep cell   (default 6)
 *   --json             write the frontier JSON (CI artifact)
 *
 * Exit status: 0 when all three reports match byte-for-byte, 1 on any
 * mismatch or an unusable scenario file.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "aiwc/common/parallel.hh"
#include "aiwc/core/csv_loader.hh"
#include "aiwc/fmt/trace.hh"
#include "aiwc/scenario/runner.hh"
#include "aiwc/scenario/scn_parser.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace
{

/** FNV-1a 64-bit over the report bytes (printable digest). */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace aiwc;

    double scale = 0.02;
    std::string scn_path = "scenarios/fleet.scn";
    int machines_per_cell = 6;
    std::string json_path;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
            continue;
        }
        if (positional == 0)
            scale = std::atof(arg.c_str());
        else if (positional == 1)
            scn_path = arg;
        else if (positional == 2)
            machines_per_cell = std::atoi(arg.c_str());
        ++positional;
    }

    scenario::ScnParseResult parsed = scenario::parseScnFile(scn_path);
    for (const scenario::ScnDiagnostic &d : parsed.diagnostics)
        std::cerr << scn_path << ':' << d.line << ": " << d.message << '\n';
    if (parsed.spec.machines.empty()) {
        std::cerr << "no machine classes in '" << scn_path << "'\n";
        return 1;
    }
    std::cout << "scenario '" << parsed.spec.name << "': "
              << parsed.spec.machines.size() << " machine classes\n";

    // One synthesized study, then the two trust-boundary round trips
    // the sweep must agree across: CSV text and binary .aiwt bytes.
    workload::SynthesisOptions synth_options;
    synth_options.seed = 2022;
    synth_options.scale = scale;
    workload::TraceSynthesizer synth(
        workload::CalibrationProfile::supercloud(), synth_options);
    core::Dataset dataset = synth.run().dataset;

    std::stringstream csv;
    dataset.writeCsv(csv);
    core::Dataset from_csv = core::loadDatasetCsv(csv);
    const std::vector<std::uint8_t> bytes = fmt::encodeTrace(from_csv);
    fmt::TraceLoadResult decoded = fmt::decodeTrace(bytes);
    if (!decoded.ok()) {
        std::cerr << "trace round trip failed: " << decoded.error << '\n';
        return 1;
    }
    std::cout << "dataset: " << from_csv.records().size() << " jobs ("
              << bytes.size() << " trace bytes)\n";

    scenario::SweepOptions sweep_options;
    sweep_options.seed = 2022;
    sweep_options.machines_per_cell = machines_per_cell;
    const scenario::ScenarioRunner runner(parsed.spec, sweep_options);
    const scenario::GreedyPackPolicy greedy;
    const scenario::LoadBalancePolicy balance;
    const scenario::EnergyFirstPolicy energy;
    const std::vector<const scenario::SchedulingPolicy *> policies{
        &greedy, &balance, &energy};
    const std::vector<scenario::TaskMix> mixes =
        scenario::defaultTaskMixes();

    setGlobalThreadCount(1);
    const scenario::FrontierReport report_1t =
        runner.sweep(from_csv, mixes, policies);
    const std::string json_1t = report_1t.toJson();

    setGlobalThreadCount(8);
    const std::string json_8t =
        runner.sweep(from_csv, mixes, policies).toJson();
    const std::string json_bin =
        runner.sweep(decoded.dataset, mixes, policies).toJson();

    report_1t.printTable(std::cout);
    std::cout << "cells: " << report_1t.cells.size() << " ("
              << parsed.spec.machines.size() << " classes x " << mixes.size()
              << " mixes x " << policies.size() << " policies), frontier: "
              << report_1t.frontier.size() << " cells\n";
    std::cout << std::hex;
    std::cout << "digest 1-thread/csv:  " << fnv1a(json_1t) << '\n'
              << "digest 8-thread/csv:  " << fnv1a(json_8t) << '\n'
              << "digest 8-thread/aiwt: " << fnv1a(json_bin) << '\n';
    std::cout << std::dec;

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot open '" << json_path << "'\n";
            return 1;
        }
        os << json_1t << '\n';
        std::cout << "frontier report written to " << json_path << '\n';
    }

    const bool threads_ok = json_1t == json_8t;
    const bool format_ok = json_1t == json_bin;
    std::cout << (threads_ok ? "PASS" : "FAIL")
              << ": report identical at 1 vs 8 threads\n"
              << (format_ok ? "PASS" : "FAIL")
              << ": report identical across CSV vs binary trace\n";
    return threads_ok && format_ok ? 0 : 1;
}
