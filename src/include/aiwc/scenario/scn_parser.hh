/**
 * @file
 * Total, never-aborting parser for the `.scn` scenario files.
 *
 * Grammar (cloudsim-eec-flavored; `#` and `//` start comments, keys are
 * case-insensitive, unknown keys are diagnosed and skipped):
 *
 *     machine class:
 *     {
 *         Name: premium-x86
 *         Number of machines: 16
 *         CPU type: X86                 # X86 | ARM | POWER | RISCV
 *         Number of cores: 32
 *         Memory: 262144                # MB
 *         S-States: [120, 100, 80, 10, 0]     # W per machine, S0 first
 *         S-State latencies: [0, 1000, 4000]  # ms to wake from S-state i
 *         P-States: [12, 8, 6, 4]             # W per busy core, P0 first
 *         C-States: [12, 3, 1, 0]             # W per idle core
 *         MIPS: [1000, 800, 600, 400]         # per-core speed at P-state i
 *         GPUs: yes
 *         Number of GPUs: 2
 *         GPU speed: 1.0                # relative to the V100 reference
 *         GPU TDP: 300                  # W per busy GPU
 *         GPU idle watts: 25
 *     }
 *
 * A `task class` block, the cloudsim-eec arrival-stream form, is read
 * past whole, `{ ... }` included, with one diagnostic on its header
 * line: the sweep draws its tasks from a dataset.
 *
 * Totality contract (the `fmt`/`svc` hostile-decoder convention): any
 * byte sequence — truncated, reordered, binary garbage — produces a
 * ScnParseResult, never an AIWC_CHECK abort. Malformed values fall back
 * to defaults with a line-numbered diagnostic, every parsed class is
 * normalize()d, and the worst possible outcome is an empty spec plus
 * diagnostics.
 */

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "aiwc/scenario/spec.hh"

namespace aiwc::scenario
{

/** One recoverable problem found while parsing (1-based line). */
struct ScnDiagnostic
{
    int line = 0;
    std::string message;
};

/** Parse outcome: a usable (possibly empty) spec plus diagnostics. */
struct ScnParseResult
{
    ScenarioSpec spec;
    std::vector<ScnDiagnostic> diagnostics;

    /** True when the input parsed without a single diagnostic. */
    bool clean() const { return diagnostics.empty(); }
};

/** Parse `.scn` text. Total: never aborts, whatever the bytes. */
ScnParseResult parseScn(std::string_view text,
                        std::string scenario_name = "scenario");

/**
 * Read and parse a `.scn` file. An unreadable path yields an empty
 * spec with a line-0 diagnostic (still total).
 */
ScnParseResult parseScnFile(const std::string &path);

} // namespace aiwc::scenario
