#include "aiwc/common/types.hh"

namespace aiwc
{

const char *
toString(Interface i)
{
    switch (i) {
      case Interface::MapReduce: return "map-reduce";
      case Interface::Batch: return "batch";
      case Interface::Interactive: return "interactive";
      case Interface::Other: return "other";
    }
    return "?";
}

const char *
toString(Lifecycle c)
{
    switch (c) {
      case Lifecycle::Mature: return "mature";
      case Lifecycle::Exploratory: return "exploratory";
      case Lifecycle::Development: return "development";
      case Lifecycle::Ide: return "IDE";
    }
    return "?";
}

const char *
toString(TerminalState s)
{
    switch (s) {
      case TerminalState::Completed: return "completed";
      case TerminalState::Cancelled: return "cancelled";
      case TerminalState::Failed: return "failed";
      case TerminalState::TimedOut: return "timed-out";
      case TerminalState::NodeFailure: return "node-failure";
    }
    return "?";
}

const char *
toString(Resource r)
{
    switch (r) {
      case Resource::Sm: return "SM";
      case Resource::MemoryBw: return "memory-bw";
      case Resource::MemorySize: return "memory-size";
      case Resource::PcieTx: return "PCIe-Tx";
      case Resource::PcieRx: return "PCIe-Rx";
      case Resource::Power: return "power";
    }
    return "?";
}

} // namespace aiwc
