#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/clock.hpp"

namespace perfbench {

using dcdb::MutexLock;

std::uint32_t Lane::add_locked(const char* name, std::uint32_t parent,
                               std::uint64_t start) {
    Span s;
    s.name = name;
    s.start = start;
    s.end = start;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.session = session_;
    s.round = round_;
    s.group = group_;
    spans_.push_back(s);
    return s.id;
}

std::uint32_t Lane::add(const char* name, std::uint32_t parent,
                        std::uint64_t start, std::uint64_t end,
                        std::uint64_t count) {
    MutexLock lock(mutex_);
    const std::uint32_t id = add_locked(name, parent, start);
    spans_[id - 1].end = end;
    spans_[id - 1].count = count;
    return id;
}

std::uint32_t Lane::open(const char* name, std::uint32_t parent,
                         std::uint64_t start) {
    MutexLock lock(mutex_);
    return add_locked(name, parent, start);
}

void Lane::close(std::uint32_t id, std::uint64_t end, std::uint64_t count,
                 std::uint64_t flushes) {
    MutexLock lock(mutex_);
    Span& s = spans_.at(id - 1);
    s.end = end;
    s.count = count;
    s.flushes = flushes;
}

void Lane::begin_round(std::uint32_t round) {
    MutexLock lock(mutex_);
    round_ = round;
    group_ = 0;
}

void Lane::begin_push(std::uint64_t start) {
    MutexLock lock(mutex_);
    push_ = add_locked("pusher.push", 0, start);
}

void Lane::end_push(std::uint64_t end) {
    MutexLock lock(mutex_);
    if (push_ != 0) spans_[push_ - 1].end = end;
    push_ = 0;
}

void Lane::publish_sending(std::uint64_t start) {
    MutexLock lock(mutex_);
    publish_ = add_locked("mqtt.publish", push_, start);
    send_ = add_locked("mqtt.send", publish_, start);
}

void Lane::publish_sent(std::uint64_t end) {
    MutexLock lock(mutex_);
    if (send_ != 0) spans_[send_ - 1].end = end;
    send_ = 0;
}

void Lane::puback(std::uint64_t at) {
    MutexLock lock(mutex_);
    if (publish_ == 0) return;
    spans_[publish_ - 1].end = at;
    publish_ = 0;
    ++group_;  // push_now() publishes the groups in order, one each
}

std::uint32_t Lane::open_publish() const {
    MutexLock lock(mutex_);
    return publish_;
}

std::vector<Span> Lane::spans() const {
    MutexLock lock(mutex_);
    return spans_;
}

void Lane::clear() {
    MutexLock lock(mutex_);
    spans_.clear();
}

void TimedTransport::send(std::span<const std::uint8_t> data) {
    const bool publish = !data.empty() && (data[0] >> 4) == 3;
    if (publish) lane_->publish_sending(dcdb::steady_ns());
    inner_->send(data);
    if (publish) lane_->publish_sent(dcdb::steady_ns());
}

std::size_t TimedTransport::recv(std::span<std::uint8_t> buf) {
    const std::size_t n = inner_->recv(buf);
    const std::uint64_t at = dcdb::steady_ns();
    // Walk the MQTT frames in the byte stream (fixed header, varint
    // remaining length, body); a frame may straddle recv calls.
    for (std::size_t i = 0; i < n;) {
        switch (scan_) {
            case Scan::kHeader:
                frame_type_ = static_cast<std::uint8_t>(buf[i++] >> 4);
                remaining_ = 0;
                shift_ = 0;
                scan_ = Scan::kLength;
                break;
            case Scan::kLength: {
                const std::uint8_t b = buf[i++];
                remaining_ |= static_cast<std::uint32_t>(b & 0x7F) << shift_;
                shift_ += 7;
                if ((b & 0x80) != 0) break;
                scan_ = Scan::kBody;
                [[fallthrough]];
            }
            case Scan::kBody: {
                const std::size_t take =
                    std::min<std::size_t>(remaining_, n - i);
                i += take;
                remaining_ -= static_cast<std::uint32_t>(take);
                if (remaining_ == 0) {
                    if (frame_type_ == 4) lane_->puback(at);
                    scan_ = Scan::kHeader;
                }
                break;
            }
        }
    }
    return n;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans,
                                  std::string_view name) {
    std::vector<std::vector<std::uint32_t>> children(spans.size() + 1);
    for (const Span& s : spans) {
        if (s.parent != 0 && s.parent <= spans.size())
            children[s.parent].push_back(s.id);
    }
    std::vector<double> out;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const Span& s : spans) {
        if (name != s.name) continue;
        covered.clear();
        for (const std::uint32_t c : children[s.id]) {
            const Span& child = spans[c - 1];
            const std::uint64_t lo = std::max(child.start, s.start);
            const std::uint64_t hi = std::min(child.end, s.end);
            if (hi > lo) covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        std::uint64_t busy = 0;
        std::uint64_t reach = s.start;
        for (const auto& [lo, hi] : covered) {
            const std::uint64_t from = std::max(lo, reach);
            if (hi > from) busy += hi - from;
            reach = std::max(reach, hi);
        }
        out.push_back(static_cast<double>(s.end - s.start - busy));
    }
    return out;
}

void write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& lanes) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f,
                 "session\tid\tparent\tname\tstart_ns\tend_ns\tround\tgroup"
                 "\tcount\tflushes\n");
    for (const auto& lane : lanes) {
        for (const Span& s : lane) {
            std::fprintf(f, "%u\t%u\t%u\t%s\t%llu\t%llu\t%u\t%u\t%llu\t%llu\n",
                         s.session, s.id, s.parent, s.name,
                         static_cast<unsigned long long>(s.start),
                         static_cast<unsigned long long>(s.end), s.round,
                         s.group, static_cast<unsigned long long>(s.count),
                         static_cast<unsigned long long>(s.flushes));
        }
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
