#include "store/metastore.hpp"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/bytebuf.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace dcdb::store {

namespace {

// Record: u32 key length, u32 value length (0xFFFFFFFF = tombstone),
// key bytes, value bytes.
constexpr std::uint32_t kTombstone = 0xFFFFFFFFu;

bool read_u32(std::FILE* f, std::uint32_t& out) {
    std::uint8_t b[4];
    if (std::fread(b, 1, 4, f) != 4) return false;
    out = (static_cast<std::uint32_t>(b[0]) << 24) |
          (static_cast<std::uint32_t>(b[1]) << 16) |
          (static_cast<std::uint32_t>(b[2]) << 8) |
          static_cast<std::uint32_t>(b[3]);
    return true;
}

void write_u32(std::FILE* f, std::uint32_t v) {
    const std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24),
                               static_cast<std::uint8_t>(v >> 16),
                               static_cast<std::uint8_t>(v >> 8),
                               static_cast<std::uint8_t>(v)};
    if (std::fwrite(b, 1, 4, f) != 4)
        throw StoreError("metastore write failed");
}

}  // namespace

MetaStore::MetaStore(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;

    // Load existing records; `valid` ends the last complete one.
    std::uint64_t valid = 0;
    if (std::FILE* f = std::fopen(path_.c_str(), "rb")) {
        while (true) {
            std::uint32_t klen = 0, vlen = 0;
            if (!read_u32(f, klen) || !read_u32(f, vlen)) break;
            if (klen > (16u << 20) || (vlen != kTombstone && vlen > (16u << 20)))
                break;  // corrupt tail
            std::string key(klen, '\0');
            if (std::fread(key.data(), 1, klen, f) != klen) break;
            if (vlen == kTombstone) {
                map_.erase(key);
                valid += 8 + klen;
                continue;
            }
            std::string value(vlen, '\0');
            if (std::fread(value.data(), 1, vlen, f) != vlen) break;
            map_[std::move(key)] = std::move(value);
            valid += 8 + klen + vlen;
        }
        std::fclose(f);
    }

    // Truncate a torn tail (crash mid-append) before reopening in append
    // mode: records written after leftover garbage would be unreachable
    // on every later load, and their SIDs handed out again.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (!ec && size > valid) {
        DCDB_WARN("store") << "metastore " << path_ << ": truncating "
                           << (size - valid) << " torn tail bytes";
        std::filesystem::resize_file(path_, valid, ec);
        if (ec)
            throw StoreError("cannot truncate torn metastore tail: " + path_);
    }
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_) throw StoreError("cannot open metastore " + path_);
}

MetaStore::~MetaStore() {
    if (file_) std::fclose(file_);
}

void MetaStore::append_record(const std::string& key,
                              const std::string& value, bool tombstone) {
    if (!file_) return;
    write_u32(file_, static_cast<std::uint32_t>(key.size()));
    write_u32(file_,
              tombstone ? kTombstone : static_cast<std::uint32_t>(value.size()));
    if (std::fwrite(key.data(), 1, key.size(), file_) != key.size())
        throw StoreError("metastore write failed");
    if (!tombstone &&
        std::fwrite(value.data(), 1, value.size(), file_) != value.size())
        throw StoreError("metastore write failed");
    std::fflush(file_);
}

void MetaStore::put(const std::string& key, const std::string& value) {
    MutexLock lock(mutex_);
    map_[key] = value;
    append_record(key, value, /*tombstone=*/false);
}

std::optional<std::string> MetaStore::get(const std::string& key) const {
    MutexLock lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
}

void MetaStore::erase(const std::string& key) {
    MutexLock lock(mutex_);
    if (map_.erase(key) > 0) append_record(key, "", /*tombstone=*/true);
}

bool MetaStore::contains(const std::string& key) const {
    MutexLock lock(mutex_);
    return map_.count(key) > 0;
}

std::vector<std::pair<std::string, std::string>> MetaStore::scan_prefix(
    const std::string& prefix) const {
    std::vector<std::pair<std::string, std::string>> out;
    {
        MutexLock lock(mutex_);
        for (const auto& [k, v] : map_) {
            if (k.size() >= prefix.size() &&
                k.compare(0, prefix.size(), prefix) == 0)
                out.emplace_back(k, v);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t MetaStore::size() const {
    MutexLock lock(mutex_);
    return map_.size();
}

void MetaStore::compact() {
    MutexLock lock(mutex_);
    if (path_.empty()) return;
    if (file_) std::fclose(file_);
    file_ = std::fopen(path_.c_str(), "wb");
    if (!file_) throw StoreError("cannot rewrite metastore " + path_);
    for (const auto& [k, v] : map_) append_record(k, v, /*tombstone=*/false);
}

}  // namespace dcdb::store
