#include "aiwc/scenario/scn_parser.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "aiwc/obs/metrics.hh"

namespace aiwc::scenario
{

namespace
{

/** Parser-side observability (names per the aiwc.* convention). */
struct ScnMetrics
{
    obs::Counter &parses;
    obs::Counter &diagnostics;

    static ScnMetrics &
    get()
    {
        static ScnMetrics m{
            obs::MetricsRegistry::global().counter("aiwc.scenario.scn_parses"),
            obs::MetricsRegistry::global().counter(
                "aiwc.scenario.scn_diagnostics"),
        };
        return m;
    }
};

std::string
trim(std::string_view s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0)
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0)
        --e;
    return std::string(s.substr(b, e - b));
}

std::string
lower(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
        out.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    return out;
}

/** Strip `#` and `//` comments (no string literals in the grammar). */
std::string_view
stripComment(std::string_view line)
{
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '#')
            return line.substr(0, i);
        if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '/')
            return line.substr(0, i);
    }
    return line;
}

/** Tolerant scalar parse; false (value untouched) on garbage. */
bool
parseNumber(const std::string &text, double &value)
{
    const std::string t = trim(text);
    if (t.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    if (v != v)  // NaN never enters a spec
        return false;
    value = v;
    return true;
}

bool
parseBool(const std::string &text, bool &value)
{
    const std::string t = lower(trim(text));
    if (t == "yes" || t == "true" || t == "1") {
        value = true;
        return true;
    }
    if (t == "no" || t == "false" || t == "0") {
        value = false;
        return true;
    }
    return false;
}

/** Parse `[a, b, c]` (brackets optional) into at most 32 doubles. */
bool
parseList(const std::string &text, std::vector<double> &out)
{
    std::string t = trim(text);
    if (!t.empty() && t.front() == '[')
        t.erase(t.begin());
    if (!t.empty() && t.back() == ']')
        t.pop_back();
    std::vector<double> values;
    std::string item;
    std::stringstream ss(t);
    bool all_ok = true;
    while (std::getline(ss, item, ',')) {
        const std::string it = trim(item);
        if (it.empty())
            continue;
        double v = 0.0;
        if (!parseNumber(it, v)) {
            all_ok = false;
            continue;
        }
        if (values.size() < 32)
            values.push_back(v);
    }
    if (values.empty())
        return false;
    out = values;
    return all_ok;
}

bool
parseIsa(const std::string &text, CpuIsa &isa)
{
    const std::string t = lower(trim(text));
    if (t == "x86") {
        isa = CpuIsa::X86;
        return true;
    }
    if (t == "arm") {
        isa = CpuIsa::Arm;
        return true;
    }
    if (t == "power") {
        isa = CpuIsa::Power;
        return true;
    }
    if (t == "riscv" || t == "risc-v") {
        isa = CpuIsa::Riscv;
        return true;
    }
    return false;
}

/** The line-by-line state machine behind parseScn(). */
class Parser
{
  public:
    explicit Parser(std::string scenario_name)
    {
        result_.spec.name = std::move(scenario_name);
    }

    ScnParseResult
    run(std::string_view text)
    {
        std::size_t pos = 0;
        while (pos <= text.size()) {
            const std::size_t nl = text.find('\n', pos);
            const std::string_view raw =
                text.substr(pos, nl == std::string_view::npos ? text.npos
                                                              : nl - pos);
            ++line_no_;
            handleLine(trim(stripComment(raw)));
            if (nl == std::string_view::npos)
                break;
            pos = nl + 1;
        }
        if (state_ != State::Top) {
            diagnose("unterminated block at end of input");
            closeBlock();
        }
        ScnMetrics::get().parses.add(1);
        ScnMetrics::get().diagnostics.add(result_.diagnostics.size());
        return std::move(result_);
    }

  private:
    enum class State
    {
        Top,
        WantBrace,   //!< saw a header, expecting `{`
        InMachine,
        Skipping,    //!< inside a `task class` block, read past unparsed
    };

    void
    diagnose(std::string message)
    {
        // Bound the diagnostic list so adversarial input cannot turn a
        // parse into an allocation storm; keep a final marker entry.
        constexpr std::size_t max_diags = 256;
        if (result_.diagnostics.size() == max_diags)
            result_.diagnostics.push_back(
                {line_no_, "further diagnostics suppressed"});
        if (result_.diagnostics.size() <= max_diags)
            result_.diagnostics.push_back({line_no_, std::move(message)});
    }

    void
    handleLine(const std::string &line)
    {
        if (line.empty())
            return;
        if (state_ == State::Top || state_ == State::WantBrace) {
            handleTop(line);
            return;
        }
        if (line == "}") {
            closeBlock();
            return;
        }
        if (state_ == State::Skipping)
            return;
        if (line == "{") {
            diagnose("nested '{' inside a block");
            return;
        }
        handleKeyValue(line);
    }

    void
    handleTop(const std::string &line)
    {
        if (line == "{") {
            if (state_ == State::WantBrace) {
                state_ = pending_;
                return;
            }
            diagnose("'{' without a preceding class header");
            return;
        }
        if (state_ == State::WantBrace) {
            // Header without a block: treat this line as top-level.
            diagnose("class header not followed by '{'");
            state_ = State::Top;
        }
        std::string head = lower(line);
        if (!head.empty() && head.back() == ':')
            head.pop_back();
        head = trim(head);
        if (head == "machine class") {
            machine_ = MachineClassSpec{};
            machine_.name.clear();
            pending_ = State::InMachine;
            state_ = State::WantBrace;
            return;
        }
        if (head == "task class") {
            // Tasks come from the dataset; a task class block is read
            // past whole, with this one diagnostic.
            diagnose("'task class' blocks are not supported; skipped");
            pending_ = State::Skipping;
            state_ = State::WantBrace;
            return;
        }
        diagnose("unrecognized top-level line: '" + line + "'");
    }

    void
    closeBlock()
    {
        if (state_ == State::InMachine) {
            if (machine_.name.empty())
                machine_.name =
                    "machine-class-" +
                    std::to_string(result_.spec.machines.size());
            normalize(machine_);
            if (result_.spec.machines.size() < 64)
                result_.spec.machines.push_back(machine_);
            else
                diagnose("too many machine classes (limit 64)");
        }
        state_ = State::Top;
    }

    void
    handleKeyValue(const std::string &line)
    {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) {
            diagnose("expected 'key: value', got '" + line + "'");
            return;
        }
        machineKey(lower(trim(line.substr(0, colon))),
                   trim(line.substr(colon + 1)));
    }

    /** Diagnose-and-default numeric assignment. */
    void
    number(const std::string &key, const std::string &value, double &out)
    {
        if (!parseNumber(value, out))
            diagnose("bad number for '" + key + "': '" + value + "'");
    }

    void
    integer(const std::string &key, const std::string &value, int &out)
    {
        double v = 0.0;
        if (!parseNumber(value, v)) {
            diagnose("bad number for '" + key + "': '" + value + "'");
            return;
        }
        if (v < -2.0e9)
            v = -2.0e9;
        if (v > 2.0e9)
            v = 2.0e9;
        out = static_cast<int>(v);
    }

    void
    list(const std::string &key, const std::string &value,
         std::vector<double> &out)
    {
        if (!parseList(value, out))
            diagnose("bad list for '" + key + "': '" + value + "'");
    }

    void
    machineKey(const std::string &key, const std::string &value)
    {
        double ms = 0.0;
        if (key == "name") {
            machine_.name = value;
        } else if (key == "number of machines") {
            integer(key, value, machine_.count);
        } else if (key == "cpu type") {
            if (!parseIsa(value, machine_.cpu))
                diagnose("unknown CPU type '" + value + "'");
        } else if (key == "number of cores") {
            integer(key, value, machine_.cores);
        } else if (key == "memory") {
            if (parseNumber(value, ms))
                machine_.memory_gb = ms / 1024.0;  // file is MB
            else
                diagnose("bad number for 'memory': '" + value + "'");
        } else if (key == "s-states") {
            list(key, value, machine_.s_state_watts);
        } else if (key == "s-state latencies") {
            std::vector<double> latencies_ms;
            if (parseList(value, latencies_ms)) {
                machine_.s_wake_seconds.clear();
                for (double v : latencies_ms)
                    machine_.s_wake_seconds.push_back(v / 1000.0);
            } else {
                diagnose("bad list for 's-state latencies': '" + value + "'");
            }
        } else if (key == "p-states") {
            list(key, value, machine_.p_state_watts);
        } else if (key == "c-states") {
            list(key, value, machine_.c_state_watts);
        } else if (key == "mips") {
            list(key, value, machine_.mips);
        } else if (key == "gpus") {
            bool has = false;
            if (!parseBool(value, has))
                diagnose("bad yes/no for 'gpus': '" + value + "'");
            else if (has && machine_.gpus == 0)
                machine_.gpus = 2;
            else if (!has)
                machine_.gpus = 0;
        } else if (key == "number of gpus") {
            integer(key, value, machine_.gpus);
        } else if (key == "gpu speed") {
            number(key, value, machine_.gpu_relative_speed);
        } else if (key == "gpu tdp") {
            number(key, value, machine_.gpu_tdp_watts);
        } else if (key == "gpu idle watts") {
            number(key, value, machine_.gpu_idle_watts);
        } else {
            diagnose("unknown machine-class key '" + key + "'");
        }
    }

    ScnParseResult result_;
    State state_ = State::Top;
    State pending_ = State::Top;
    MachineClassSpec machine_;
    int line_no_ = 0;
};

} // namespace

ScnParseResult
parseScn(std::string_view text, std::string scenario_name)
{
    return Parser(std::move(scenario_name)).run(text);
}

ScnParseResult
parseScnFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ScnParseResult result;
        result.diagnostics.push_back({0, "cannot open '" + path + "'"});
        return result;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    // Scenario name = file stem, e.g. scenarios/fleet.scn -> "fleet".
    std::string name = path;
    const std::size_t slash = name.find_last_of("/\\");
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        name = name.substr(0, dot);
    return parseScn(buf.str(), name);
}

} // namespace aiwc::scenario
