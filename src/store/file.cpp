#include "store/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytebuf.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "store/murmur.hpp"

namespace dcdb::store {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4;  // u32 magic, u32 version

struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Closes a descriptor unless it is released, as FilePtr does a FILE*.
struct FdOwner {
    int fd;
    ~FdOwner() { if (fd >= 0) ::close(fd); }
    int release() { return std::exchange(fd, -1); }
};

/// The one EINTR policy for every open, sync and truncate: retry.
template <typename Call>
int retry_eintr(Call call) {
    int rc;
    do rc = call();
    while (rc < 0 && errno == EINTR);
    return rc;
}

/// One write(2) for all of `bytes`, continued after EINTR or a short
/// write. False (errno set) if the kernel takes no more of them.
bool write_all(int fd, std::span<const std::uint8_t> bytes) {
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        bytes = bytes.subspan(static_cast<std::size_t>(n));
    }
    return true;
}

std::uint32_t load_be32(const std::uint8_t* p) {
    return ByteReader({p, 4}).u32be();
}

std::uint32_t record_crc(std::span<const std::uint8_t> len_and_body) {
    return static_cast<std::uint32_t>(murmur3_token(len_and_body));
}

}  // namespace

void sync_file(std::FILE* f, const std::string& path) {
    if (std::fflush(f) != 0) throw StoreError("cannot flush " + path);
    if (retry_eintr([&] { return ::fsync(::fileno(f)); }) != 0)
        throw StoreError("cannot fsync " + path);
}

void pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset,
                 const std::string& path) {
    std::size_t done = 0;
    while (done < n) {
        const ssize_t got =
            ::pread(fd, static_cast<std::uint8_t*>(buf) + done, n - done,
                    static_cast<off_t>(offset + done));
        if (got < 0 && errno == EINTR) continue;  // interrupted, not short
        if (got <= 0) throw StoreError("short read from " + path);
        done += static_cast<std::size_t>(got);
    }
}

void publish_file(std::FILE* f, const std::string& tmp_path,
                  const std::string& path) {
    // The data is on the device before the rename makes it reachable, and
    // the rename is before the caller drops the data's other copy.
    FilePtr file(f);
    sync_file(file.get(), tmp_path);
    if (std::fclose(file.release()) != 0)
        throw StoreError("cannot close " + tmp_path);
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0)
        throw StoreError("cannot rename " + tmp_path);
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = retry_eintr([&] { return ::open(dir.c_str(), O_RDONLY); });
    if (fd < 0) throw StoreError("cannot open directory " + dir);
    const int rc = retry_eintr([&] { return ::fsync(fd); });
    ::close(fd);
    if (rc != 0) throw StoreError("cannot fsync directory " + dir);
}

RecordLog::RecordLog(std::string path, std::uint32_t magic,
                     std::uint32_t version, const Replay& replay)
    : path_(std::move(path)) {
    // O_APPEND: every write lands at the end of the file.
    FdOwner file{retry_eintr([&] {
        return ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                      0666);
    })};
    if (file.fd < 0) throw StoreError("cannot open " + path_);
    const off_t end = ::lseek(file.fd, 0, SEEK_END);
    if (end < 0) throw StoreError("cannot size " + path_);
    const auto size = static_cast<std::uint64_t>(end);

    std::uint64_t valid = 0;
    std::uint64_t records = 0;
    std::uint8_t head[kHeaderBytes];
    if (size >= kHeaderBytes) {
        pread_exact(file.fd, head, kHeaderBytes, 0, path_);
        if (load_be32(head) != magic || load_be32(head + 4) != version)
            throw StoreError(path_ + ": foreign header, refused untouched");
        valid = kHeaderBytes;
        // The length check bounds every record by the bytes left in the
        // file, so replay never reads or allocates more than it holds.
        std::vector<std::uint8_t> record;
        while (size - valid >= kFrameBytes) {
            record.resize(4);
            pread_exact(file.fd, record.data(), 4, valid, path_);
            const std::uint32_t len = load_be32(record.data());
            if (len == 0 || len > size - valid - kFrameBytes) break;
            record.resize(kFrameBytes + len);
            pread_exact(file.fd, &record[4], len + 4ul, valid + 4, path_);
            const auto checked =
                std::span<const std::uint8_t>(record).first(4 + len);
            if (record_crc(checked) != load_be32(record.data() + 4 + len) ||
                !replay(checked.subspan(4)))
                break;
            valid += kFrameBytes + len;
            ++records;
        }
    }
    if (valid < size) {
        DCDB_WARN("store") << path_ << ": truncating " << (size - valid)
                           << " torn tail bytes after " << records
                           << " intact records";
        if (retry_eintr([&] {
                return ::ftruncate(file.fd, static_cast<off_t>(valid));
            }) != 0)
            throw StoreError("cannot truncate " + path_);
    }
    if (valid == 0) {
        store_be32(head, magic);
        store_be32(head + 4, version);
        if (!write_all(file.fd, head))
            throw StoreError("cannot write header of " + path_);
    }
    fd_ = file.release();
}

RecordLog::~RecordLog() { ::close(fd_); }

void RecordLog::seal(std::span<std::uint8_t> record) {
    if (record.size() - kFrameBytes > UINT32_MAX)  // wraps when too short
        throw StoreError("record body does not fit a u32 length");
    const std::size_t len = record.size() - kFrameBytes;
    store_be32(record.data(), static_cast<std::uint32_t>(len));
    store_be32(record.data() + 4 + len, record_crc(record.first(4 + len)));
}

void RecordLog::check_usable() {
    if (failed_) throw StoreError(path_ + " failed a write; reopen it");
}

void RecordLog::fail(const char* what) {
    const int err = errno;
    failed_ = true;
    throw StoreError(std::string("cannot ") + what + " " + path_ + ": " +
                     std::strerror(err));
}

void RecordLog::append(std::span<const std::uint8_t> record) {
    MutexLock lock(mutex_);
    check_usable();
    if (!write_all(fd_, record)) fail("append to");
}

void RecordLog::sync() {
    MutexLock lock(mutex_);
    check_usable();
    if (retry_eintr([&] { return ::fdatasync(fd_); }) != 0) fail("fdatasync");
}

void RecordLog::reset() {
    MutexLock lock(mutex_);
    check_usable();
    if (retry_eintr([&] {
            return ::ftruncate(fd_, static_cast<off_t>(kHeaderBytes));
        }) != 0)
        fail("truncate");
}

}  // namespace dcdb::store
