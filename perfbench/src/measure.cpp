#include "measure.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace perfbench {

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        unsigned long long kib = 0;
        if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string filesystem_type(const std::string& path) {
    struct statfs info {};
    if (::statfs(path.c_str(), &info) != 0) return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
        case 0xEF53: return "ext4";
        case 0x58465342: return "xfs";
        case 0x9123683E: return "btrfs";
        case 0x01021994: return "tmpfs";
        case 0x794C7630: return "overlayfs";
        case 0x2FC12FC1: return "zfs";
        case 0x6969: return "nfs";
        default: break;
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%lx",
                  static_cast<unsigned long>(info.f_type));
    return hex;
}

void settle_disk(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
}

}  // namespace perfbench
