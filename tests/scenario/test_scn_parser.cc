/**
 * @file
 * `.scn` parser tests: the grammar round trip, and — the part the
 * acceptance criterion names — totality over hostile text. The parser
 * sits at a trust boundary like the binary trace decoder, so every
 * truncation, garbage byte, and malformed value must degrade into
 * diagnostics plus a normalized (possibly empty) spec, never an abort.
 */

#include <gtest/gtest.h>

#include <string>

#include "aiwc/scenario/scn_parser.hh"

#include "../common/mutation_driver.hh"

namespace aiwc::scenario
{
namespace
{

const char *const kGoodScn = R"(# demo scenario
machine class:
{
    Name: premium-x86
    Number of machines: 16
    CPU type: X86
    Number of cores: 32
    Memory: 262144
    S-States: [120, 100, 80, 10, 0]
    S-State latencies: [0, 1000, 2000, 4000, 16000]
    P-States: [12, 8, 6, 4]
    C-States: [12, 3, 1, 0]
    MIPS: [1000, 800, 600, 400]
    GPUs: yes
    Number of GPUs: 2
    GPU speed: 0.5
    GPU TDP: 250
    GPU idle watts: 20
}
task class:
{
    Name: web-front
    Start time: 60000
    End time: 600000
    Inter arrival: 8000
    Expected runtime: 120000
    Memory: 8192
    Number of cores: 2
    VM type: LINUX
    GPU enabled: no
    SLA type: SLA0
    CPU type: ARM
    Task type: WEB
    Seed: 726775
}
)";

TEST(ScnParser, ParsesTheDocumentedGrammar)
{
    const ScnParseResult r = parseScn(kGoodScn, "demo");
    for (const ScnDiagnostic &d : r.diagnostics)
        ADD_FAILURE() << "line " << d.line << ": " << d.message;
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.spec.name, "demo");
    ASSERT_EQ(r.spec.machines.size(), 1u);
    ASSERT_EQ(r.spec.tasks.size(), 1u);

    const MachineClassSpec &m = r.spec.machines[0];
    EXPECT_EQ(m.name, "premium-x86");
    EXPECT_EQ(m.count, 16);
    EXPECT_EQ(m.cpu, CpuIsa::X86);
    EXPECT_EQ(m.cores, 32);
    EXPECT_DOUBLE_EQ(m.memory_gb, 256.0);  // 262144 MB
    ASSERT_EQ(m.s_state_watts.size(), 5u);
    EXPECT_DOUBLE_EQ(m.s_state_watts[0], 120.0);
    ASSERT_EQ(m.s_wake_seconds.size(), 5u);
    EXPECT_DOUBLE_EQ(m.s_wake_seconds[1], 1.0);  // 1000 ms
    EXPECT_EQ(m.gpus, 2);
    EXPECT_DOUBLE_EQ(m.gpu_relative_speed, 0.5);
    EXPECT_DOUBLE_EQ(m.gpu_tdp_watts, 250.0);

    const TaskClassSpec &t = r.spec.tasks[0];
    EXPECT_EQ(t.name, "web-front");
    EXPECT_DOUBLE_EQ(t.start_time, 60.0);
    EXPECT_DOUBLE_EQ(t.end_time, 600.0);
    EXPECT_DOUBLE_EQ(t.inter_arrival, 8.0);
    EXPECT_DOUBLE_EQ(t.expected_runtime, 120.0);
    EXPECT_DOUBLE_EQ(t.memory_gb, 8.0);
    EXPECT_EQ(t.cores, 2);
    EXPECT_FALSE(t.gpu);
    EXPECT_EQ(t.sla, SlaClass::LatencySensitive);  // SLA0
    EXPECT_EQ(t.cpu, CpuIsa::Arm);
    EXPECT_EQ(t.type, TaskType::Web);
    EXPECT_EQ(t.seed, 726775u);
}

TEST(ScnParser, SlaNumberMapping)
{
    const char *const text =
        "task class:\n{\nSLA type: SLA1\n}\n"
        "task class:\n{\nSLA type: SLA2\n}\n"
        "task class:\n{\nSLA type: SLA3\n}\n"
        "task class:\n{\nSLA type: scavenger\n}\n";
    const ScnParseResult r = parseScn(text);
    ASSERT_EQ(r.spec.tasks.size(), 4u);
    EXPECT_EQ(r.spec.tasks[0].sla, SlaClass::Batch);
    EXPECT_EQ(r.spec.tasks[1].sla, SlaClass::Batch);
    EXPECT_EQ(r.spec.tasks[2].sla, SlaClass::Scavenger);
    EXPECT_EQ(r.spec.tasks[3].sla, SlaClass::Scavenger);
}

TEST(ScnParser, MalformedValuesFallBackWithDiagnostics)
{
    const char *const text =
        "machine class:\n"
        "{\n"
        "Number of machines: banana\n"
        "Number of cores: -12\n"
        "Memory: nan\n"
        "CPU type: Z80\n"
        "Mystery key: 7\n"
        "}\n";
    const ScnParseResult r = parseScn(text);
    ASSERT_EQ(r.spec.machines.size(), 1u);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.diagnostics.size(), 4u);
    // Whatever the input did, the class is simulatable.
    const MachineClassSpec &m = r.spec.machines[0];
    EXPECT_GE(m.cores, 1);
    EXPECT_GE(m.memory_gb, 0.25);
    EXPECT_GT(m.mipsAt(0), 0.0);
}

TEST(ScnParser, UnterminatedBlockIsClosedWithDiagnostic)
{
    const ScnParseResult r =
        parseScn("machine class:\n{\nName: lonely\nNumber of cores: 8\n");
    ASSERT_EQ(r.spec.machines.size(), 1u);
    EXPECT_EQ(r.spec.machines[0].name, "lonely");
    EXPECT_EQ(r.spec.machines[0].cores, 8);
    EXPECT_FALSE(r.clean());
}

TEST(ScnParser, EmptyAndWhitespaceInputsAreCleanAndEmpty)
{
    EXPECT_TRUE(parseScn("").clean());
    EXPECT_TRUE(parseScn("\n\n  \t\n# only a comment\n").clean());
    EXPECT_TRUE(parseScn("").spec.machines.empty());
}

TEST(ScnParser, UnreadableFileYieldsDiagnosticNotAbort)
{
    const ScnParseResult r =
        parseScnFile("/nonexistent/definitely/missing.scn");
    EXPECT_TRUE(r.spec.machines.empty());
    ASSERT_FALSE(r.diagnostics.empty());
    EXPECT_EQ(r.diagnostics[0].line, 0);
}

/**
 * The parser's totality contract, checked on every mutant: whatever
 * the bytes, it returns within its machine, task and diagnostic caps,
 * and every machine class it keeps is simulatable.
 */
void
scnOracle(const fuzz::Mutant &m)
{
    const ScnParseResult r = parseScn(m.bytes);
    EXPECT_LE(r.spec.machines.size(), 64u);
    EXPECT_LE(r.spec.tasks.size(), 256u);
    EXPECT_LE(r.diagnostics.size(), 257u);  // cap + suppression marker
    for (const MachineClassSpec &machine : r.spec.machines) {
        EXPECT_GE(machine.cores, 1);
        EXPECT_GT(machine.mipsAt(0), 0.0);
    }
}

TEST(ScnParserHostile, EveryTruncationParses)
{
    using enum fuzz::MutationKind;
    fuzz::MutationDriver("scn", kGoodScn, 0x7e11ab1eULL)
        .run({{EveryPrefix}, {Truncate, 200}}, scnOracle);
}

// Bias garbage toward the grammar's alphabet so blocks actually open
// and keys actually match; pure noise would never reach the value
// parsers.
TEST(ScnParserHostile, RandomGarbageNeverAborts)
{
    fuzz::MutationDriver("scn", kGoodScn, 0xdecafbadULL)
        .garbage(600, "machine clstk:{}[]\n\r\t #/,.:+-eE"
                      "0123456789xyzNaninf")
        .run({{fuzz::MutationKind::Garbage, 200}}, scnOracle);
}

// Mutations of a structurally correct file hit deeper parser states
// than noise.
TEST(ScnParserHostile, MutatedValidDocumentNeverAborts)
{
    using enum fuzz::MutationKind;
    fuzz::MutationDriver("scn", kGoodScn, 0x5ca1ab1eULL)
        .run({{ByteReplace, 200}, {BitFlip, 200}, {Splice, 200}},
             scnOracle);
}

TEST(ScnParserHostile, DiagnosticFloodIsCapped)
{
    std::string text;
    for (int i = 0; i < 2000; ++i)
        text += "garbage line without a block\n";
    const ScnParseResult r = parseScn(text);
    EXPECT_LE(r.diagnostics.size(), 257u);  // cap + suppression marker
}

TEST(ScnParserHostile, ClassFloodIsCapped)
{
    std::string text;
    for (int i = 0; i < 500; ++i)
        text += "machine class:\n{\nName: m\n}\n";
    for (int i = 0; i < 500; ++i)
        text += "task class:\n{\nName: t\n}\n";
    const ScnParseResult r = parseScn(text);
    EXPECT_LE(r.spec.machines.size(), 64u);
    EXPECT_LE(r.spec.tasks.size(), 256u);
}

} // namespace
} // namespace aiwc::scenario
