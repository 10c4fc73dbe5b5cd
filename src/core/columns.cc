#include "aiwc/core/columns.hh"

namespace aiwc::core
{

void
ColumnTable::append(const JobRecord &record)
{
    user_idx_.push_back(users_.intern(record.user));
    job_types_.intern(packJobType(record.interface, record.terminal));
    interface_.push_back(static_cast<std::uint8_t>(record.interface));
    terminal_.push_back(static_cast<std::uint8_t>(record.terminal));
    true_class_.push_back(static_cast<std::uint8_t>(record.true_class));
    submit_.push_back(record.submit_time);
    start_.push_back(record.start_time);
    end_.push_back(record.end_time);
    gpus_.push_back(record.gpus);

    // Derived columns use the JobRecord member functions themselves,
    // so a columnar gather and a row walk can never disagree by a ULP.
    runtime_s_.push_back(record.runTime());
    wait_s_.push_back(record.waitTime());
    gpu_hours_.push_back(record.gpuHours());
    for (int r = 0; r < num_resources; ++r) {
        const auto res = static_cast<Resource>(r);
        const auto i = static_cast<std::size_t>(r);
        mean_util_[i].push_back(record.meanUtilization(res));
        max_util_[i].push_back(record.maxUtilization(res));
    }
}

} // namespace aiwc::core
