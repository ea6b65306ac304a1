#include "store/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
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

/// The one EINTR policy for every open, sync and truncate: retry.
template <typename Call>
int retry_eintr(Call call) {
    int rc;
    do rc = call();
    while (rc < 0 && errno == EINTR);
    return rc;
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
    // "a+": reads start at offset 0, and every write appends.
    FilePtr file(std::fopen(path_.c_str(), "ab+"));
    if (!file) throw StoreError("cannot open " + path_);
    std::FILE* f = file.get();
    std::fseek(f, 0, SEEK_END);
    const auto size = static_cast<std::uint64_t>(std::ftell(f));
    std::rewind(f);

    std::uint64_t valid = 0;
    std::uint64_t records = 0;
    std::uint8_t head[kHeaderBytes];
    if (size >= kHeaderBytes) {
        if (std::fread(head, 1, kHeaderBytes, f) != kHeaderBytes)
            throw StoreError("cannot read " + path_);
        if (load_be32(head) != magic || load_be32(head + 4) != version)
            throw StoreError(path_ + ": foreign header, refused untouched");
        valid = kHeaderBytes;
        // The length check bounds every record by the bytes left in the
        // file, so replay never allocates more than the file holds.
        std::vector<std::uint8_t> record;
        while (size - valid >= kFrameBytes) {
            record.resize(4);
            if (std::fread(record.data(), 1, 4, f) != 4) break;
            const std::uint32_t len = load_be32(record.data());
            if (len == 0 || len > size - valid - kFrameBytes) break;
            record.resize(kFrameBytes + len);
            if (std::fread(&record[4], 1, len + 4ul, f) != len + 4ul) break;
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
                return ::ftruncate(::fileno(f), static_cast<off_t>(valid));
            }) != 0)
            throw StoreError("cannot truncate " + path_);
    }
    std::fseek(f, 0, SEEK_END);  // from reading to appending
    if (valid == 0) {
        store_be32(head, magic);
        store_be32(head + 4, version);
        if (std::fwrite(head, 1, kHeaderBytes, f) != kHeaderBytes ||
            std::fflush(f) != 0)
            throw StoreError("cannot write header of " + path_);
    }
    file_ = file.release();
}

RecordLog::~RecordLog() { std::fclose(file_); }

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
    if (std::fwrite(record.data(), 1, record.size(), file_) != record.size())
        fail("append to");
}

void RecordLog::flush() {
    MutexLock lock(mutex_);
    check_usable();
    if (std::fflush(file_) != 0) fail("flush");
}

void RecordLog::sync() {
    MutexLock lock(mutex_);
    check_usable();
    if (std::fflush(file_) != 0) fail("flush");
    if (retry_eintr([&] { return ::fdatasync(::fileno(file_)); }) != 0)
        fail("fdatasync");
}

void RecordLog::reset() {
    MutexLock lock(mutex_);
    check_usable();
    // Flushed first, or buffered records would land behind the header.
    if (std::fflush(file_) != 0) fail("flush");
    if (retry_eintr([&] {
            return ::ftruncate(::fileno(file_),
                               static_cast<off_t>(kHeaderBytes));
        }) != 0)
        fail("truncate");
}

}  // namespace dcdb::store
