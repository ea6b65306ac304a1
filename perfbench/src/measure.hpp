// Process and file-system meters used by the benchmark. Sample statistics
// come from dcdb_analysis (analysis/stats.hpp), process CPU from
// dcdb::sample_self() (common/proc_metrics.hpp).
#pragma once

#include <string>

namespace perfbench {

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// File-system type holding `path` (ext4, xfs, tmpfs, ...).
std::string filesystem_type(const std::string& path);

/// syncfs() the file system holding `path`: write back what earlier work
/// left dirty and commit its journal, including the discards a deleted
/// store directory queues on a file system mounted with `discard`, so
/// that cost is not charged to the next timed section.
void settle_disk(const std::string& path);

}  // namespace perfbench
