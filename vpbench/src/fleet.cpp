/**
 * @file
 * The `fleet` workload: an in-process VpdServer that persists its
 * aggregate every second, loaded from one process by at most four busy
 * threads:
 *
 *  - two producers, each a closed loop over a unix socket with one
 *    Delta frame in flight, timed from encode until its Ack arrives;
 *  - one HTTP generator, an open loop at a fixed rate (60% /top, 30%
 *    /entity/{id}, 10% /metrics) over a few keep-alive connections,
 *    each request timed from the moment it was due.
 *
 * Deltas are real entity summaries: the twenty suite snapshots profiled
 * during set-up, moved into key windows. Each producer walks a seeded
 * permutation of (snapshot, window) pairs over its own window range;
 * the two ranges overlap by half, so about half the keys are shared
 * and folds touch both partials. A prefill pass sends every pair once
 * before timing starts, so the aggregate (about 5 * 10^4 entities,
 * some 10 MB of summaries, far past L2) is at full size for the whole
 * measured window.
 *
 * At the end the aggregate fetched over SNAPSHOT and the file the
 * daemon persisted must both be byte-identical to the benchmark's own
 * serial fold of the acked deltas in producer-id order.
 */

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "profile.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"
#include "support/stats_registry.hpp"

namespace vpbench
{

namespace
{

constexpr unsigned kProducers = 2;
/** Key stride between suite snapshots; every suite pc is below it. */
constexpr std::uint64_t kPcStride = 1u << 12;
/** Windows per producer; producer p starts at p * kWindows / 2. A
 *  window holds every suite snapshot at its own pc range, so the
 *  aggregate has 1.5 * kWindows * (suite entities) keys. */
constexpr unsigned kWindows = 20;
constexpr unsigned kHttpConns = 6;
constexpr int kReplyTimeoutMs = 5000;

// --- inputs --------------------------------------------------------------

/** Generates every producer's delta stream from the suite snapshots. */
class DeltaSource
{
  public:
    DeltaSource(std::vector<core::ProfileSnapshot> bases,
                std::uint64_t seed)
        : snaps(std::move(bases))
    {
        for (const auto &s : snaps)
            for (const auto &[key, e] : s.entities)
                if (key >= kPcStride)
                    throw std::runtime_error("suite pc beyond window");
        vp::Rng rng(mixSeed(seed, 5));
        for (unsigned p = 0; p < kProducers; ++p) {
            auto &c = combos[p];
            c.resize(snaps.size() * kWindows);
            for (std::uint32_t i = 0; i < c.size(); ++i)
                c[i] = i;
            for (std::size_t i = c.size(); i > 1; --i)
                std::swap(c[i - 1], c[rng.below(i)]);
        }
    }

    /** Pairs per producer: one prefill pass sends each once. */
    std::size_t cycle() const { return combos[0].size(); }

    /** Producer `p`'s delta number `seq` (1-based). */
    core::ProfileSnapshot
    make(unsigned p, std::uint64_t seq) const
    {
        const std::uint32_t c = combos[p][(seq - 1) % combos[p].size()];
        const auto &base = snaps[c / kWindows];
        const std::uint64_t off =
            windowOffset(p, c % kWindows) + (c / kWindows) * kPcStride;
        core::ProfileSnapshot out;
        for (const auto &[key, e] : base.entities)
            out.entities.emplace_hint(out.entities.end(), key + off, e);
        return out;
    }

    /** A key present in the aggregate once prefill is done. */
    std::uint64_t
    someKey(vp::Rng &rng) const
    {
        const std::size_t b = rng.below(snaps.size());
        auto it = snaps[b].entities.begin();
        std::advance(it, rng.below(snaps[b].entities.size()));
        const unsigned p = static_cast<unsigned>(rng.below(kProducers));
        return it->first + windowOffset(p, rng.below(kWindows)) +
               b * kPcStride;
    }

  private:
    std::uint64_t
    windowOffset(unsigned p, std::uint64_t w) const
    {
        return (1 + p * (kWindows / 2) + w) * snaps.size() * kPcStride;
    }

    std::vector<core::ProfileSnapshot> snaps;
    std::vector<std::uint32_t> combos[kProducers];
};

// --- the daemon ------------------------------------------------------------

/** A running VpdServer on its own thread; stops and joins on
 *  destruction. */
class Daemon
{
  public:
    Daemon(const std::string &dir, unsigned tag)
        : ingest(dir + "/vpd-" + std::to_string(::getpid()) + "-" +
                 std::to_string(tag) + ".sock"),
          snapshotPath(dir + "/vpd-" + std::to_string(::getpid()) + "-" +
                       std::to_string(tag) + ".vprof")
    {
        vp::serve::ServerConfig cfg;
        cfg.listenAddrs = {"unix:" + ingest};
        cfg.httpAddrs = {"127.0.0.1:0"};
        cfg.snapshotPath = snapshotPath;
        cfg.snapshotIntervalSec = 1.0;
        server = std::make_unique<vp::serve::VpdServer>(cfg);
        std::string err;
        if (!server->start(err))
            throw std::runtime_error("vpd start: " + err);
        http = server->boundHttpAddresses().at(0);
        loop = std::thread([this] {
            std::string e;
            if (!server->run(e))
                loopError = e;
        });
    }

    ~Daemon()
    {
        server->requestStop();
        loop.join();
        ::unlink(snapshotPath.c_str());
        ::unlink((snapshotPath + ".tmp").c_str());
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::string addr() const { return "unix:" + ingest; }

    const std::string ingest;
    const std::string snapshotPath;
    vp::net::Address http;
    std::unique_ptr<vp::serve::VpdServer> server;
    std::string loopError;

  private:
    std::thread loop;
};

/** What set-up builds: the delta inputs and a started daemon. */
struct Fleet
{
    std::unique_ptr<DeltaSource> source;
    std::unique_ptr<Daemon> daemon;
};

Fleet
setUpFleet(const Options &opt, unsigned tag, Report &report)
{
    Fleet f;
    std::vector<core::ProfileSnapshot> bases;
    for (const GuestProgram &g : loadPrograms(opt.seed, 0)) {
        core::ProfileSnapshot snap;
        const JobResult r = profileJob(g, core::ProfileMode::Full, &snap);
        report.check("fleet_setup_job", r.ok, r.error);
        bases.push_back(std::move(snap));
    }
    f.source = std::make_unique<DeltaSource>(std::move(bases), opt.seed);
    f.daemon = std::make_unique<Daemon>(opt.outDir, tag);
    return f;
}

// --- producers ---------------------------------------------------------------

/** One producer's connection and stream position; lives across phases. */
struct Producer
{
    unsigned index = 0;
    std::uint64_t id = 0;
    vp::net::FdGuard fd;
    vp::serve::FrameReader reader;
    std::uint64_t acked = 0; ///< deltas acked so far (== last seq)
    bool failed = false;
    std::string error;
};

/** Per-phase samples of one thread. */
struct ProducerPhase
{
    std::vector<double> ackUs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

bool
waitAck(Producer &p, std::uint64_t seq, std::string &err)
{
    vp::serve::Frame frame;
    for (;;) {
        switch (p.reader.next(frame, err)) {
          case vp::serve::DecodeStatus::Ok: {
            std::uint64_t got = 0;
            if (frame.type != vp::serve::MsgType::Ack) {
                err = std::string("reply ") +
                      vp::serve::msgTypeName(frame.type) + ": " +
                      vp::serve::payloadText(frame.payload);
                return false;
            }
            if (!vp::serve::decodeAck(frame.payload, got, err))
                return false;
            if (got != seq) {
                err = "ack for seq " + std::to_string(got) +
                      ", expected " + std::to_string(seq);
                return false;
            }
            return true;
          }
          case vp::serve::DecodeStatus::Corrupt:
            return false;
          case vp::serve::DecodeStatus::NeedMore:
            break;
        }
        pollfd pfd{p.fd.get(), POLLIN, 0};
        if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0) {
            err = "ack timeout";
            return false;
        }
        std::uint8_t buf[4096];
        const long n = vp::net::recvSome(p.fd.get(), buf, sizeof buf, err);
        if (n <= 0) {
            if (n == 0)
                err = "daemon closed the connection";
            return false;
        }
        p.reader.append(buf, static_cast<std::size_t>(n));
    }
}

/**
 * Closed loop until `deadline` (or, when `until_acked` is nonzero,
 * until that many deltas are acked). The next delta is built while the
 * daemon works on the one in flight, so input generation stays off
 * the timed path.
 */
ProducerPhase
producerLoop(Producer &p, const DeltaSource &src,
             Clock::time_point deadline, std::uint64_t until_acked)
{
    ProducerPhase ph;
    vp::trace::setWorkerId(static_cast<int>(p.index + 1));
    core::ProfileSnapshot next = src.make(p.index, p.acked + 1);
    while (!p.failed && Clock::now() < deadline &&
           (until_acked == 0 || p.acked < until_acked)) {
        vp::serve::Delta d;
        d.producerId = p.id;
        d.seq = p.acked + 1;
        d.entities = std::move(next);
        ++ph.attempted;
        const auto t0 = Clock::now();
        std::vector<std::uint8_t> frame;
        {
            LayerSpan span("wire.encodeDelta");
            frame = vp::serve::encodeDelta(d);
        }
        std::string err;
        bool ok = vp::net::sendAll(p.fd.get(), frame.data(), frame.size(),
                                   err);
        next = src.make(p.index, d.seq + 1);
        if (ok) {
            LayerSpan span("server.delta_to_ack");
            ok = waitAck(p, d.seq, err);
        }
        if (!ok) {
            p.failed = true;
            p.error = "producer " + std::to_string(p.id) + ": " + err;
            ++ph.failed;
            break;
        }
        ph.ackUs.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        p.acked = d.seq;
    }
    return ph;
}

// --- HTTP load generator ---------------------------------------------------------

/** A complete HTTP reply, or why it could not be read. */
struct HttpReply
{
    int status = 0;
    std::string body;
};

/** Incremental HTTP/1.1 response reader (Content-Length or chunked). */
class ReplyReader
{
  public:
    void append(const char *data, std::size_t n) { buf.append(data, n); }

    /** 1 = reply complete, 0 = need more, -1 = malformed. */
    int
    next(HttpReply &out)
    {
        const std::size_t head_end = buf.find("\r\n\r\n");
        if (head_end == std::string::npos)
            return 0;
        const std::string head = buf.substr(0, head_end);
        if (head.compare(0, 9, "HTTP/1.1 ") != 0)
            return -1;
        out.status = std::atoi(head.c_str() + 9);
        std::string lower = head;
        for (char &c : lower)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        std::size_t pos = head_end + 4;
        if (lower.find("transfer-encoding: chunked") != std::string::npos) {
            std::string body;
            for (;;) {
                const std::size_t eol = buf.find("\r\n", pos);
                if (eol == std::string::npos)
                    return 0;
                const std::size_t len =
                    std::strtoul(buf.c_str() + pos, nullptr, 16);
                if (buf.size() < eol + 2 + len + 2)
                    return 0;
                body.append(buf, eol + 2, len);
                pos = eol + 2 + len + 2;
                if (len == 0)
                    break;
            }
            out.body = std::move(body);
        } else {
            const std::size_t cl = lower.find("content-length:");
            if (cl == std::string::npos)
                return -1;
            const std::size_t len =
                std::strtoul(lower.c_str() + cl + 15, nullptr, 10);
            if (buf.size() < pos + len)
                return 0;
            out.body = buf.substr(pos, len);
            pos += len;
        }
        buf.erase(0, pos);
        return 1;
    }

  private:
    std::string buf;
};

/** Minimal strict JSON validator (RFC 8259 grammar, no semantics). */
class JsonCheck
{
  public:
    static bool
    valid(const std::string &s)
    {
        JsonCheck j{s};
        j.ws();
        if (!j.value())
            return false;
        j.ws();
        return j.i == s.size();
    }

  private:
    explicit JsonCheck(const std::string &text) : s(text) {}

    const std::string &s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() && std::strchr(" \t\r\n", s[i]))
            ++i;
    }
    bool eat(char c) { return i < s.size() && s[i] == c && (++i, true); }
    bool
    lit(const char *w)
    {
        const std::size_t n = std::strlen(w);
        if (s.compare(i, n, w) != 0)
            return false;
        i += n;
        return true;
    }
    bool
    str()
    {
        if (!eat('"'))
            return false;
        while (i < s.size() && s[i] != '"') {
            if (static_cast<unsigned char>(s[i]) < 0x20)
                return false;
            if (s[i] == '\\')
                ++i;
            ++i;
        }
        return eat('"');
    }
    bool
    num()
    {
        const char *b = s.c_str() + i;
        char *e = nullptr;
        std::strtod(b, &e);
        if (e == b)
            return false;
        i += static_cast<std::size_t>(e - b);
        return true;
    }
    bool
    value()
    {
        ws();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{':
            ++i;
            ws();
            if (eat('}'))
                return true;
            do {
                ws();
                if (!str())
                    return false;
                ws();
                if (!eat(':') || !value())
                    return false;
                ws();
            } while (eat(','));
            return eat('}');
          case '[':
            ++i;
            ws();
            if (eat(']'))
                return true;
            do {
                if (!value())
                    return false;
                ws();
            } while (eat(','));
            return eat(']');
          case '"': return str();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return num();
        }
    }
};

/** Prometheus text exposition: comments, or "name[{labels}] value". */
bool
validProm(const std::string &body)
{
    std::istringstream is(body);
    std::string line;
    std::size_t samples = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos || sp == 0)
            return false;
        const char *v = line.c_str() + sp + 1;
        char *e = nullptr;
        std::strtod(v, &e);
        if (e == v || *e != '\0')
            return false;
        ++samples;
    }
    return samples > 0;
}

enum class Endpoint
{
    Top,
    Entity,
    Metrics,
};

std::string
targetFor(Endpoint ep, const DeltaSource &src, vp::Rng &rng)
{
    switch (ep) {
      case Endpoint::Top: return "/top?n=10";
      case Endpoint::Entity:
        return "/entity/" + std::to_string(src.someKey(rng));
      case Endpoint::Metrics: return "/metrics";
    }
    return "/";
}

Endpoint
drawEndpoint(vp::Rng &rng)
{
    const std::uint64_t r = rng.below(10);
    return r < 6 ? Endpoint::Top
                 : r < 9 ? Endpoint::Entity : Endpoint::Metrics;
}

bool
validReply(Endpoint ep, const HttpReply &r)
{
    if (r.status != 200)
        return false;
    return ep == Endpoint::Metrics ? validProm(r.body)
                                   : JsonCheck::valid(r.body);
}

/** One keep-alive connection of the generator. */
struct HttpConn
{
    vp::net::FdGuard fd;
    ReplyReader reader;
    bool busy = false;
    Endpoint ep = Endpoint::Top;
    Clock::time_point due{};
};

struct HttpPhase
{
    std::vector<double> queryUs; ///< reply time minus due time
    std::vector<double> lateUs;  ///< send time minus due time
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t replies = 0;
    std::string firstError;
};

/** The open-loop generator; connections and RNG live across phases. */
class HttpLoad
{
  public:
    HttpLoad(const vp::net::Address &addr, const DeltaSource &src,
             std::uint64_t seed, double rate)
        : src(src), rng(mixSeed(seed, 6)), rate(rate)
    {
        for (auto &c : conns) {
            std::string err;
            c.fd.reset(vp::net::connectTo(addr, err));
            if (!c.fd.valid())
                throw std::runtime_error("http connect: " + err);
        }
    }

    /** Offer `rate` requests/s until `deadline`, then drain. */
    HttpPhase
    run(Clock::time_point deadline)
    {
        HttpPhase ph;
        vp::trace::setWorkerId(kProducers + 1);
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate));
        Clock::time_point next_due = Clock::now();
        bool draining = false;
        for (;;) {
            Clock::time_point now = Clock::now();
            draining = draining || now >= deadline;
            if (!draining) {
                while (next_due <= now) {
                    HttpConn *c = freeConn();
                    if (!c)
                        break;
                    send(*c, next_due, now, ph);
                    next_due += period;
                }
            }
            std::vector<pollfd> pfds;
            std::vector<HttpConn *> who;
            for (auto &c : conns) {
                if (c.busy) {
                    pfds.push_back({c.fd.get(), POLLIN, 0});
                    who.push_back(&c);
                }
            }
            if (draining && pfds.empty())
                break;
            // Sleep until the next request is due (or a reply comes);
            // with every connection busy, only a reply can help.
            timespec ts{0, 0};
            const timespec *tsp = nullptr;
            if (!draining && freeConn()) {
                const auto wait = std::max(next_due - Clock::now(),
                                           Clock::duration::zero());
                const auto ns = std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(wait)
                                    .count();
                ts.tv_sec = ns / 1'000'000'000;
                ts.tv_nsec = ns % 1'000'000'000;
                tsp = &ts;
            } else {
                ts.tv_nsec = 0;
                ts.tv_sec = kReplyTimeoutMs / 1000;
                tsp = &ts;
            }
            const int n = ::ppoll(pfds.data(), pfds.size(), tsp, nullptr);
            if (n == 0 && (draining || !freeConn())) {
                // A late reply would be taken for the next request's,
                // so a timed-out connection is closed, not reused.
                for (HttpConn *c : who) {
                    fail(ph, "reply timeout");
                    c->busy = false;
                    c->fd.reset();
                }
                continue;
            }
            for (std::size_t i = 0; i < pfds.size(); ++i)
                if (pfds[i].revents)
                    receive(*who[i], ph);
        }
        return ph;
    }

  private:
    HttpConn *
    freeConn()
    {
        for (auto &c : conns)
            if (!c.busy && c.fd.valid())
                return &c;
        return nullptr;
    }

    void
    fail(HttpPhase &ph, const std::string &why)
    {
        ++ph.failed;
        if (ph.firstError.empty())
            ph.firstError = why;
    }

    void
    send(HttpConn &c, Clock::time_point due, Clock::time_point now,
         HttpPhase &ph)
    {
        c.ep = drawEndpoint(rng);
        const std::string req = "GET " + targetFor(c.ep, src, rng) +
                                " HTTP/1.1\r\nHost: vpd\r\n\r\n";
        ++ph.attempted;
        std::string err;
        if (!vp::net::sendAll(c.fd.get(), req.data(), req.size(), err)) {
            fail(ph, "http send: " + err);
            c.fd.reset();
            return;
        }
        c.busy = true;
        c.due = due;
        ph.lateUs.push_back(secondsBetween(due, now) * 1e6);
    }

    void
    receive(HttpConn &c, HttpPhase &ph)
    {
        char buf[16384];
        std::string err;
        const long n = vp::net::recvSome(c.fd.get(), buf, sizeof buf, err);
        if (n <= 0) {
            fail(ph, "http connection lost: " + err);
            c.busy = false;
            c.fd.reset();
            return;
        }
        c.reader.append(buf, static_cast<std::size_t>(n));
        HttpReply reply;
        const int st = c.reader.next(reply);
        if (st == 0)
            return;
        c.busy = false;
        ++ph.replies;
        ph.queryUs.push_back(secondsBetween(c.due, Clock::now()) * 1e6);
        if (st < 0 || !validReply(c.ep, reply))
            fail(ph, "bad reply (status " + std::to_string(reply.status) +
                         ")");
    }

    const DeltaSource &src;
    vp::Rng rng;
    double rate;
    HttpConn conns[kHttpConns];
};

/** One GET on a fresh connection (the /stats.json read). */
bool
httpGet(const vp::net::Address &addr, const std::string &target,
        HttpReply &out)
{
    std::string err;
    vp::net::FdGuard fd(vp::net::connectTo(addr, err));
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: vpd\r\n\r\n";
    if (!fd.valid() || !vp::net::sendAll(fd.get(), req.data(), req.size(), err))
        return false;
    ReplyReader reader;
    char buf[16384];
    for (;;) {
        const int st = reader.next(out);
        if (st != 0)
            return st > 0;
        const long n = vp::net::recvSome(fd.get(), buf, sizeof buf, err);
        if (n <= 0)
            return false;
        reader.append(buf, static_cast<std::size_t>(n));
    }
}

/** p50/p99 of a named distribution in a /stats.json body. */
bool
statsQuantiles(const std::string &json, const std::string &name,
               double &p50, double &p99)
{
    const std::size_t at = json.find("\"" + name + "\": {");
    if (at == std::string::npos)
        return false;
    const std::size_t end = json.find('}', at);
    auto field = [&](const char *key, double &v) {
        const std::size_t k = json.find(key, at);
        if (k == std::string::npos || k > end)
            return false;
        v = std::strtod(json.c_str() + k + std::strlen(key), nullptr);
        return true;
    };
    return field("\"p50\": ", p50) && field("\"p99\": ", p99);
}

// --- one load session ----------------------------------------------------------

struct PhaseResult
{
    double seconds = 0.0;
    std::uint64_t acked = 0;
    std::vector<double> ackUs;
    HttpPhase http;

    double ingestRate() const { return ratio(double(acked), seconds); }
    double queryRate() const { return ratio(double(http.replies), seconds); }
};

/** Producers and HTTP generator against one daemon, phase by phase. */
class Session
{
  public:
    Session(Fleet &fleet, const Options &opt)
        : fleet(fleet)
    {
        for (unsigned i = 0; i < kProducers; ++i) {
            Producer &p = producers[i];
            p.index = i;
            p.id = i + 1;
            std::string err;
            vp::net::Address a;
            if (!vp::net::parseAddress(fleet.daemon->addr(), a, err))
                throw std::runtime_error(err);
            p.fd.reset(vp::net::connectTo(a, err));
            if (!p.fd.valid())
                throw std::runtime_error("ingest connect: " + err);
        }
        rate = opt.httpRate;
        seed = opt.seed;
    }

    /** Send every (snapshot, window) pair once; untimed. */
    void
    prefill(Report &report)
    {
        std::thread ts[kProducers];
        for (unsigned i = 0; i < kProducers; ++i)
            ts[i] = std::thread([&, i] {
                producerLoop(producers[i], *fleet.source, Clock::time_point::max(),
                             fleet.source->cycle());
            });
        for (auto &t : ts)
            t.join();
        for (const Producer &p : producers)
            report.check("fleet_prefill", !p.failed, p.error);
        http = std::make_unique<HttpLoad>(fleet.daemon->http,
                                          *fleet.source, seed, rate);
    }

    /** Producers and queries together for `seconds`. */
    PhaseResult
    phase(double seconds, Report &report)
    {
        PhaseResult res;
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        ProducerPhase pp[kProducers];
        std::thread ts[kProducers];
        for (unsigned i = 0; i < kProducers; ++i)
            ts[i] = std::thread([&, i] {
                pp[i] = producerLoop(producers[i], *fleet.source, deadline, 0);
            });
        res.http = http->run(deadline);
        for (auto &t : ts)
            t.join();
        res.seconds = secondsBetween(start, Clock::now());
        for (unsigned i = 0; i < kProducers; ++i) {
            res.acked += pp[i].ackUs.size();
            res.ackUs.insert(res.ackUs.end(), pp[i].ackUs.begin(),
                             pp[i].ackUs.end());
            report.ops(pp[i].attempted, pp[i].failed);
            report.check("delta_acked", pp[i].failed == 0,
                         producers[i].error);
        }
        report.ops(res.http.attempted, res.http.failed);
        report.check("http_replies", res.http.failed == 0,
                     res.http.firstError);
        return res;
    }

    /**
     * The served aggregate (SNAPSHOT) and the persisted file (after
     * FLUSH) against the serial fold of every acked delta, partials in
     * producer-id order. Returns the fold.
     */
    core::ProfileSnapshot
    verify(Report &report)
    {
        core::ProfileSnapshot partials[kProducers];
        std::thread ts[kProducers];
        for (unsigned i = 0; i < kProducers; ++i)
            ts[i] = std::thread([&, i] {
                for (std::uint64_t s = 1; s <= producers[i].acked; ++s)
                    partials[i].merge(fleet.source->make(i, s));
            });
        for (auto &t : ts)
            t.join();
        core::ProfileSnapshot fold;
        for (const auto &p : partials)
            fold.merge(p);
        std::ostringstream want;
        fold.save(want);

        std::string err;
        core::ProfileSnapshot served;
        const bool got = vp::serve::requestSnapshot(fleet.daemon->addr(),
                                                    served, err);
        std::ostringstream served_bytes;
        served.save(served_bytes);
        report.op(got && served_bytes.str() == want.str());
        report.check("fleet_snapshot_identical",
                     got && served_bytes.str() == want.str(),
                     got ? "SNAPSHOT differs from the serial fold" : err);

        const bool flushed =
            vp::serve::requestFlush(fleet.daemon->addr(), err);
        std::ifstream in(fleet.daemon->snapshotPath, std::ios::binary);
        std::ostringstream file_bytes;
        file_bytes << in.rdbuf();
        report.op(flushed && file_bytes.str() == want.str());
        report.check("fleet_persisted_identical",
                     flushed && file_bytes.str() == want.str(),
                     flushed ? "persisted file differs from the serial fold"
                             : err);
        report.check("fleet_daemon_loop", fleet.daemon->loopError.empty(),
                     fleet.daemon->loopError);
        report.line("fleet.aggregate_entities", double(fold.size()),
                    "count");
        return fold;
    }

    Fleet &fleet;
    Producer producers[kProducers];
    std::unique_ptr<HttpLoad> http;
    double rate = 0.0;
    std::uint64_t seed = 0;
};

/**
 * Report the timed windows: every figure is the median over windows
 * of that window's value, so a burst of host noise in one window does
 * not move the result. Each window's p99s rest on at least 1000
 * samples.
 */
void
reportWindows(Report &report, const std::vector<PhaseResult> &windows,
              double rate)
{
    auto med = [&](auto &&fig) {
        std::vector<double> v;
        for (const PhaseResult &w : windows)
            v.push_back(fig(w));
        return median(v);
    };
    std::size_t min_acks = SIZE_MAX, min_queries = SIZE_MAX;
    for (const PhaseResult &w : windows) {
        min_acks = std::min(min_acks, w.ackUs.size());
        min_queries = std::min(min_queries, w.http.queryUs.size());
    }
    const double ingest = med([](auto &w) { return w.ingestRate(); });
    const double ack50 = med([](auto &w) { return quantile(w.ackUs, 0.5); });
    const double ack99 = med([](auto &w) { return quantile(w.ackUs, 0.99); });
    const double q50 =
        med([](auto &w) { return quantile(w.http.queryUs, 0.5); });
    const double q99 =
        med([](auto &w) { return quantile(w.http.queryUs, 0.99); });
    report.endToEnd("rate_per_s", ingest, "1/s");
    report.endToEnd("alt_rate_per_s",
                    med([](auto &w) { return w.queryRate(); }), "1/s");
    report.endToEnd("p50_us", ack50, "us");
    report.endToEnd("tail_us", ack99, "us");
    report.endToEnd("alt_p50_us", q50, "us");
    report.endToEnd("alt_tail_us", q99, "us");
    const std::string per =
        " samples per window, median of " + std::to_string(windows.size());
    report.line("ingest_deltas_per_s", ingest, "1/s");
    report.line("ack_p50_us", ack50, "us");
    report.line("ack_p99_us", ack99, "us",
                ">= " + std::to_string(min_acks) + per);
    report.line("query_p50_us", q50, "us");
    report.line("query_p99_us", q99, "us",
                ">= " + std::to_string(min_queries) + per);
    report.line("loadgen.offered_rate", rate, "1/s");
    report.line("loadgen.late_us_p99",
                med([](auto &w) { return quantile(w.http.lateUs, 0.99); }),
                "us");
    report.check("p99_samples", min_acks >= 1000 && min_queries >= 1000,
                 "fewer than 1000 samples behind a p99");
}

/**
 * Per-layer figures of the fleet: a traced phase with the daemon's
 * stats on (server.* from /stats.json), then the wire, merge, persist
 * and HTTP-render legs timed directly on the session's own data.
 */
void
fleetLayerLegs(Session &s, const PhaseResult &traced,
               const std::string &stats_json,
               const core::ProfileSnapshot &agg, const Options &opt,
               Report &report)
{
    double m50 = 0, m99 = 0, a50 = 0, a99 = 0;
    const bool have = statsQuantiles(stats_json, "serve.merge_us", m50, m99) &&
                      statsQuantiles(stats_json, "serve.ack_us", a50, a99);
    report.check("stats_json", have, "serve.* distributions missing");
    report.layer("server.merge_us_p50", m50, "us");
    report.layer("server.merge_us_p99", m99, "us");
    report.layer("server.ack_us_p50", a50, "us");
    report.layer("server.ack_us_p99", a99, "us");
    report.layer("server.ack_share", ratio(a50, quantile(traced.ackUs, 0.5)),
                 "fraction");
    report.layer("loadgen.late_us_p99", quantile(traced.http.lateUs, 0.99),
                 "us");

    // Wire and merge legs on the workload's own deltas.
    const DeltaSource &src = *s.fleet.source;
    std::vector<vp::serve::Delta> deltas(256);
    double entities = 0;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        deltas[i].producerId = 1 + i % kProducers;
        deltas[i].seq = 1 + i / kProducers;
        deltas[i].entities = src.make(i % kProducers, deltas[i].seq);
        entities += double(deltas[i].entities.size());
    }
    std::vector<double> enc, dec, mrg;
    double bytes = 0;
    for (unsigned rep = 0; rep < 5; ++rep) {
        std::vector<std::vector<std::uint8_t>> frames(deltas.size());
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            LayerSpan span("wire.encodeDelta");
            frames[i] = vp::serve::encodeDelta(deltas[i]);
        }
        enc.push_back(secondsBetween(t0, Clock::now()));
        bytes = 0;
        t0 = Clock::now();
        for (const auto &f : frames) {
            LayerSpan span("wire.tryDecode+decodeDelta");
            vp::serve::Frame frame;
            std::size_t used = 0;
            std::string err;
            vp::serve::Delta d;
            const bool ok =
                vp::serve::tryDecode(f.data(), f.size(), frame, used, err) ==
                    vp::serve::DecodeStatus::Ok &&
                vp::serve::decodeDelta(frame, d, err);
            report.check("wire_roundtrip", ok, err);
            bytes += double(f.size());
        }
        dec.push_back(secondsBetween(t0, Clock::now()));
        core::ProfileSnapshot target = agg; // a full-size partial
        t0 = Clock::now();
        for (const auto &d : deltas) {
            LayerSpan span("core.ProfileSnapshot::merge");
            target.merge(d.entities);
        }
        mrg.push_back(secondsBetween(t0, Clock::now()));
    }
    report.layer("wire.encode_ns_per_entity", 1e9 * median(enc) / entities,
                 "ns");
    report.layer("wire.decode_ns_per_entity", 1e9 * median(dec) / entities,
                 "ns");
    report.layer("wire.bytes_per_entity", bytes / entities, "B");
    report.layer("core.merge_ns_per_entity", 1e9 * median(mrg) / entities,
                 "ns");

    // Persist: the daemon's atomic save of the whole aggregate.
    std::vector<double> persist;
    const std::string path = opt.outDir + "/persist-" +
                             std::to_string(::getpid()) + ".vprof";
    for (unsigned rep = 0; rep < 3; ++rep) {
        std::string err;
        const auto t0 = Clock::now();
        bool ok;
        {
            LayerSpan span("core.ProfileSnapshot::saveToFile");
            ok = agg.saveToFile(path, err);
        }
        persist.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        report.check("persist_saved", ok, err);
    }
    ::unlink(path.c_str());
    report.layer("core.persist_ms", median(persist), "ms");

    // HTTP render: the query handlers and response serialization over
    // the aggregate, without the socket.
    vp::serve::ServerView view;
    view.aggregate = &agg;
    view.applySeq = s.producers[0].acked + s.producers[1].acked;
    view.deltasTotal = view.applySeq;
    vp::Rng rng(mixSeed(opt.seed, 7));
    vp::serve::HttpConfig hcfg;
    auto render = [&](Endpoint ep, unsigned n) {
        std::vector<double> us;
        for (unsigned i = 0; i < n; ++i) {
            vp::serve::HttpRequestParser parser;
            const std::string raw = "GET " + targetFor(ep, src, rng) +
                                    " HTTP/1.1\r\nHost: vpd\r\n\r\n";
            parser.append(reinterpret_cast<const std::uint8_t *>(raw.data()),
                          raw.size());
            vp::serve::HttpRequest req;
            std::string err;
            parser.next(req, err);
            const auto t0 = Clock::now();
            std::vector<std::uint8_t> wire;
            vp::serve::HttpResponse resp;
            {
                LayerSpan span("http.handleQuery");
                resp = vp::serve::handleQuery(req, view);
                wire = vp::serve::serializeHttpResponse(req, resp, hcfg);
            }
            us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
            report.check("http_render",
                         resp.status == 200 &&
                             (ep == Endpoint::Metrics
                                  ? validProm(resp.body)
                                  : JsonCheck::valid(resp.body)),
                         raw.substr(0, raw.find('\r')));
        }
        return us;
    };
    const auto top = render(Endpoint::Top, 300);
    report.layer("http.top_us_p50", quantile(top, 0.5), "us");
    report.layer("http.top_us_p99", quantile(top, 0.99), "us");
    report.layer("http.entity_us_p50",
                 quantile(render(Endpoint::Entity, 300), 0.5), "us");
    report.layer("http.metrics_us_p50",
                 quantile(render(Endpoint::Metrics, 100), 0.5), "us");
}

/** A traced phase with the daemon's stats on; returns /stats.json. */
std::string
tracedPhase(Session &s, double seconds, Report &report, PhaseResult &out)
{
    vp::stats::global().reset();
    vp::stats::setEnabled(true);
    vp::trace::TraceCollector::global().setEnabled(true);
    out = s.phase(seconds, report);
    HttpReply stats;
    const bool ok = httpGet(s.fleet.daemon->http, "/stats.json", stats) &&
                    stats.status == 200 && JsonCheck::valid(stats.body);
    report.check("stats_json", ok, "GET /stats.json failed");
    vp::trace::TraceCollector::global().setEnabled(false);
    vp::stats::setEnabled(false);
    return stats.body;
}

} // namespace

void
runFleet(const Options &opt, Report &report)
{
    unsigned tag = 0;
    Fleet fleet =
        timedSetup(report, 3, [&] { return setUpFleet(opt, tag++, report); });
    Session s(fleet, opt);
    s.prefill(report);
    s.phase(warmupSeconds(opt), report);

    if (opt.trace) {
        const PhaseResult plain = s.phase(0.2 * opt.seconds, report);
        PhaseResult traced;
        const std::string stats =
            tracedPhase(s, 0.2 * opt.seconds, report, traced);
        reportTraceOverhead(report, plain.ingestRate(), traced.ingestRate());
        const core::ProfileSnapshot agg = s.verify(report);
        fleetLayerLegs(s, traced, stats, agg, opt, report);
        return;
    }

    // Windows of about 5 s: at the design rate each holds 1500 queries.
    const unsigned n = std::max(1u, static_cast<unsigned>(opt.seconds / 5));
    std::vector<PhaseResult> windows;
    for (unsigned i = 0; i < n; ++i)
        windows.push_back(s.phase(opt.seconds / n, report));
    s.verify(report);
    reportWindows(report, windows, s.rate);
}

void
fleetLayers(const Options &opt, Report &report, double budget,
            bool have_server_phase)
{
    if (have_server_phase)
        return; // the fleet workload's own traced phase measured these
    Fleet fleet = setUpFleet(opt, 100, report);
    Session s(fleet, opt);
    s.prefill(report);
    PhaseResult traced;
    const std::string stats = tracedPhase(s, 0.5 * budget, report, traced);
    const core::ProfileSnapshot agg = s.verify(report);
    fleetLayerLegs(s, traced, stats, agg, opt, report);
}

} // namespace vpbench
