#include "obs/trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace pasta::obs {

namespace detail {

std::atomic<int> g_mode{-1};

int
mode_slow()
{
    const int env = static_cast<int>(mode_from_env());
    g_mode.store(env, std::memory_order_relaxed);
    return env;
}

}  // namespace detail

TraceMode
mode_from_env()
{
    const char* s = std::getenv("PASTA_TRACE");
    if (!s || !*s)
        return TraceMode::kOff;
    if (std::strcmp(s, "off") == 0)
        return TraceMode::kOff;
    if (std::strcmp(s, "spans") == 0)
        return TraceMode::kSpans;
    const bool retired =
        std::strcmp(s, "counters") == 0 || std::strcmp(s, "full") == 0;
    PASTA_CHECK_MSG(false, "PASTA_TRACE='"
                               << s << "' must be off or spans"
                               << (retired ? "; counters are always "
                                             "recorded, use spans for "
                                             "the span trace"
                                           : ""));
    return TraceMode::kOff;  // unreachable
}

void
set_mode(TraceMode mode)
{
    detail::g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

const char*
mode_name(TraceMode mode)
{
    switch (mode) {
      case TraceMode::kOff: return "off";
      case TraceMode::kSpans: return "spans";
    }
    return "?";
}

namespace {

/// Per-thread ring capacity.  16384 events x 72 bytes ≈ 1.2 MB, allocated
/// lazily on a thread's first recorded span (never with tracing off).
constexpr std::size_t kSpanCapacity = 16384;

/// One completed span as stored in a ring buffer: fixed-size, no heap.
struct SpanEvent {
    char name[kSpanNameCapacity];
    std::uint64_t begin_ns;
    std::uint64_t dur_ns;
    std::int32_t depth;
};

/// Per-thread buffer.  `count` is written with release order after the
/// event slot is filled so a host-side collector never reads a torn
/// event; everything else is owned by the recording thread.
struct ThreadBuffer {
    int tid = 0;
    int depth = 0;
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
    std::vector<SpanEvent> events;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>&
registry()
{
    static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    return buffers;
}

/// The calling thread's buffer; registered (under the registry mutex) on
/// first use, lock-free afterwards.  The registry owns the buffer so
/// collected spans survive thread exit.
ThreadBuffer&
local_buffer()
{
    thread_local ThreadBuffer* buf = nullptr;
    if (!buf) {
        auto owned = std::make_unique<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(g_registry_mutex);
        owned->tid = static_cast<int>(registry().size());
        registry().push_back(std::move(owned));
        buf = registry().back().get();
    }
    return *buf;
}

/// Nanoseconds since the process trace epoch (first call), on the same
/// steady clock as the harness watchdog.
std::uint64_t
now_ns()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

/// Writes `s` with the suite's shared JSON string escaping.
void
write_escaped(std::FILE* f, const std::string& s)
{
    std::fputs(json::escaped(s).c_str(), f);
}

/// One warning per process the first time an export sees dropped spans;
/// the per-export metadata block still carries the exact count.
void
warn_dropped_once(std::uint64_t dropped, const std::string& path)
{
    static std::atomic<bool> warned{false};
    if (dropped > 0 && !warned.exchange(true)) {
        PASTA_LOG_WARN << dropped << " span(s) dropped (ring buffer "
                       << "full); the trace in " << path
                       << " is missing the latest phases";
    }
}

}  // namespace

void
SpanScope::open(const char* name)
{
    if (!spans_enabled())
        return;
    armed_ = true;
    std::strncpy(name_, name, kSpanNameCapacity - 1);
    name_[kSpanNameCapacity - 1] = '\0';
    depth_ = local_buffer().depth++;
    begin_ns_ = now_ns();
}

SpanScope::SpanScope(const char* name)
{
    open(name);
}

SpanScope::SpanScope(const std::string& name)
{
    open(name.c_str());
}

SpanScope::~SpanScope()
{
    if (!armed_)
        return;
    const std::uint64_t end_ns = now_ns();
    ThreadBuffer& buf = local_buffer();
    --buf.depth;
    const std::size_t n = buf.count.load(std::memory_order_relaxed);
    if (n >= kSpanCapacity) {
        buf.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (buf.events.empty())
        buf.events.resize(kSpanCapacity);
    SpanEvent& ev = buf.events[n];
    std::memcpy(ev.name, name_, kSpanNameCapacity);
    ev.begin_ns = begin_ns_;
    ev.dur_ns = end_ns - begin_ns_;
    ev.depth = depth_;
    buf.count.store(n + 1, std::memory_order_release);
}

std::uint64_t
trace_now_ns()
{
    return now_ns();
}

std::int64_t
trace_wall_offset_us()
{
    const std::int64_t wall_us = std::chrono::duration_cast<
                                     std::chrono::microseconds>(
                                     std::chrono::system_clock::now()
                                         .time_since_epoch())
                                     .count();
    const std::int64_t mono_us = static_cast<std::int64_t>(now_ns() / 1000);
    return wall_us - mono_us;
}

void
record_span(const char* name, std::uint64_t begin_ns, std::uint64_t dur_ns,
            int depth)
{
    if (!spans_enabled())
        return;
    ThreadBuffer& buf = local_buffer();
    const std::size_t n = buf.count.load(std::memory_order_relaxed);
    if (n >= kSpanCapacity) {
        buf.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (buf.events.empty())
        buf.events.resize(kSpanCapacity);
    SpanEvent& ev = buf.events[n];
    std::strncpy(ev.name, name, kSpanNameCapacity - 1);
    ev.name[kSpanNameCapacity - 1] = '\0';
    ev.begin_ns = begin_ns;
    ev.dur_ns = dur_ns;
    ev.depth = depth;
    buf.count.store(n + 1, std::memory_order_release);
}

std::vector<SpanRecord>
collect_spans()
{
    std::vector<SpanRecord> out;
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buf : registry()) {
        const std::size_t n = buf->count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const SpanEvent& ev = buf->events[i];
            SpanRecord rec;
            rec.name = ev.name;
            rec.tid = buf->tid;
            rec.depth = ev.depth;
            rec.ts_us = static_cast<double>(ev.begin_ns) * 1e-3;
            rec.dur_us = static_cast<double>(ev.dur_ns) * 1e-3;
            out.push_back(std::move(rec));
        }
    }
    return out;
}

std::uint64_t
spans_dropped()
{
    std::uint64_t total = 0;
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buf : registry())
        total += buf->dropped.load(std::memory_order_relaxed);
    return total;
}

void
reset_spans()
{
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buf : registry()) {
        buf->count.store(0, std::memory_order_relaxed);
        buf->dropped.store(0, std::memory_order_relaxed);
    }
}

bool
write_chrome_trace(const std::string& path)
{
    const std::vector<SpanRecord> spans = collect_spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        PASTA_LOG_WARN << "cannot write trace " << path;
        return false;
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const auto& s : spans) {
        if (!first)
            std::fputc(',', f);
        first = false;
        std::fputs("\n{\"name\":\"", f);
        write_escaped(f, s.name);
        std::fprintf(f,
                     "\",\"cat\":\"pasta\",\"ph\":\"X\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"depth\":%d}}",
                     s.ts_us, s.dur_us, s.tid, s.depth);
    }
    const std::uint64_t dropped = spans_dropped();
    if (dropped > 0) {
        if (!first)
            std::fputc(',', f);
        std::fprintf(f,
                     "\n{\"name\":\"spans_dropped\",\"ph\":\"C\","
                     "\"ts\":0,\"pid\":1,\"tid\":0,"
                     "\"args\":{\"count\":%llu}}",
                     static_cast<unsigned long long>(dropped));
    }
    // Viewers ignore unknown top-level keys; merge_chrome_traces reads
    // this block for pid tracks and clock alignment.
    std::fprintf(f,
                 "\n],\"pastaMeta\":{\"pid\":%lld,"
                 "\"monoToEpochUs\":%lld,\"spansDropped\":%llu}}\n",
                 static_cast<long long>(::getpid()),
                 static_cast<long long>(trace_wall_offset_us()),
                 static_cast<unsigned long long>(dropped));
    std::fclose(f);
    warn_dropped_once(dropped, path);
    PASTA_LOG_INFO << "wrote " << path << " (" << spans.size()
                   << " spans" << (dropped ? ", some dropped" : "") << ")";
    return true;
}

bool
write_spans_jsonl(const std::string& path)
{
    const std::vector<SpanRecord> spans = collect_spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        PASTA_LOG_WARN << "cannot write span stream " << path;
        return false;
    }
    const std::uint64_t dropped = spans_dropped();
    std::fprintf(f,
                 "{\"pastaMeta\":{\"pid\":%lld,\"monoToEpochUs\":%lld,"
                 "\"spansDropped\":%llu}}\n",
                 static_cast<long long>(::getpid()),
                 static_cast<long long>(trace_wall_offset_us()),
                 static_cast<unsigned long long>(dropped));
    for (const auto& s : spans) {
        std::fputs("{\"name\":\"", f);
        write_escaped(f, s.name);
        std::fprintf(f,
                     "\",\"tid\":%d,\"depth\":%d,\"ts_us\":%.3f,"
                     "\"dur_us\":%.3f}\n",
                     s.tid, s.depth, s.ts_us, s.dur_us);
    }
    std::fclose(f);
    warn_dropped_once(dropped, path);
    PASTA_LOG_INFO << "wrote " << path << " (" << spans.size() << " spans)";
    return true;
}

namespace {

/// pastaMeta fields scraped from one write_chrome_trace output.
struct ParsedMeta {
    long long pid = -1;
    long long mono_to_epoch_us = 0;
    unsigned long long dropped = 0;
    bool present = false;
};

ParsedMeta
scrape_meta(const std::string& text)
{
    ParsedMeta meta;
    const std::size_t at = text.find("\"pastaMeta\":{");
    if (at == std::string::npos)
        return meta;
    const auto field = [&](const char* key) -> long long {
        const std::size_t k = text.find(key, at);
        if (k == std::string::npos)
            return 0;
        return std::strtoll(text.c_str() + k + std::strlen(key), nullptr,
                            10);
    };
    meta.pid = field("\"pid\":");
    meta.mono_to_epoch_us = field("\"monoToEpochUs\":");
    meta.dropped = static_cast<unsigned long long>(
        field("\"spansDropped\":"));
    meta.present = true;
    return meta;
}

/// Rewrites the first `"<key>":<number>` occurrence in an event line.
/// Safe on this writer's output: key patterns include an unescaped
/// quote, which can never be produced by the name escaper.
bool
rewrite_number_field(std::string& line, const char* pattern, double value,
                     bool integral)
{
    const std::size_t at = line.find(pattern);
    if (at == std::string::npos)
        return false;
    const std::size_t val_at = at + std::strlen(pattern);
    std::size_t val_end = val_at;
    while (val_end < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[val_end])) ||
            line[val_end] == '.' || line[val_end] == '-' ||
            line[val_end] == '+' || line[val_end] == 'e' ||
            line[val_end] == 'E'))
        ++val_end;
    char buf[40];
    if (integral)
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(value));
    else
        std::snprintf(buf, sizeof buf, "%.3f", value);
    line.replace(val_at, val_end - val_at, buf);
    return true;
}

}  // namespace

bool
merge_chrome_traces(const std::vector<TraceMergeInput>& inputs,
                    const std::string& out_path)
{
    struct Loaded {
        ParsedMeta meta;
        std::string label;
        std::vector<std::string> events;  // raw event lines, comma-free
    };
    std::vector<Loaded> traces;
    long long min_offset = 0;
    bool have_offset = false;
    int synthetic_pid = 1000000;  // above any real pid range
    for (const auto& input : inputs) {
        std::ifstream in(input.path);
        if (!in.good()) {
            PASTA_LOG_WARN << "merge: cannot read " << input.path
                           << "; skipping";
            continue;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        Loaded loaded;
        loaded.meta = scrape_meta(text);
        loaded.label = input.label;
        if (!loaded.meta.present)
            loaded.meta.pid = ++synthetic_pid;
        // Event lines are the writer's own format: one object per line
        // inside the traceEvents array, trailing comma on all but last.
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.rfind("{\"name\":", 0) != 0)
                continue;
            while (!line.empty() &&
                   (line.back() == ',' || line.back() == ' '))
                line.pop_back();
            loaded.events.push_back(std::move(line));
        }
        if (loaded.meta.present &&
            (!have_offset || loaded.meta.mono_to_epoch_us < min_offset)) {
            min_offset = loaded.meta.mono_to_epoch_us;
            have_offset = true;
        }
        traces.push_back(std::move(loaded));
    }
    if (traces.empty()) {
        PASTA_LOG_WARN << "merge: no readable traces for " << out_path;
        return false;
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        PASTA_LOG_WARN << "cannot write merged trace " << out_path;
        return false;
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    unsigned long long dropped_total = 0;
    std::size_t events_total = 0;
    for (auto& trace : traces) {
        dropped_total += trace.meta.dropped;
        if (!first)
            std::fputc(',', f);
        first = false;
        std::fprintf(f,
                     "\n{\"name\":\"process_name\",\"ph\":\"M\","
                     "\"pid\":%lld,\"tid\":0,\"args\":{\"name\":\"",
                     trace.meta.pid);
        write_escaped(f, trace.label);
        std::fputs("\"}}", f);
        const double shift =
            trace.meta.present
                ? static_cast<double>(trace.meta.mono_to_epoch_us -
                                      min_offset)
                : 0.0;
        for (std::string& line : trace.events) {
            const std::size_t ts_at = line.find("\"ts\":");
            if (ts_at != std::string::npos) {
                const double ts = std::strtod(
                    line.c_str() + ts_at + 5, nullptr);
                rewrite_number_field(line, "\"ts\":", ts + shift, false);
            }
            rewrite_number_field(
                line, "\"pid\":",
                static_cast<double>(trace.meta.pid), true);
            std::fputc(',', f);
            std::fputc('\n', f);
            std::fputs(line.c_str(), f);
            ++events_total;
        }
    }
    std::fprintf(f,
                 "\n],\"pastaMeta\":{\"pid\":%lld,"
                 "\"monoToEpochUs\":%lld,\"spansDropped\":%llu,"
                 "\"merged\":%zu}}\n",
                 static_cast<long long>(::getpid()), min_offset,
                 dropped_total, traces.size());
    std::fclose(f);
    PASTA_LOG_INFO << "wrote " << out_path << " (" << events_total
                   << " events from " << traces.size() << " trace(s))";
    return true;
}

}  // namespace pasta::obs
