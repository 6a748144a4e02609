#include "wsq/net/chaosproxy.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <vector>

#include "wsq/common/clock.h"

namespace wsq::net {

namespace {

/// Listener and wakeup tags; link tags are id*2 (client side) and
/// id*2+1 (upstream side) with ids starting at 1, so they never
/// collide.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeupTag = 1;

/// Idle tick when no shaped chunk is pending — bounds how long Stop()
/// waits for the loop to notice running_ flipped.
constexpr int kIdleTickMs = 100;

/// recv buffer; also the natural chunk size shaping operates on.
constexpr size_t kReadChunkBytes = 16 * 1024;

}  // namespace

ChaosProxy::ChaosProxy(ChaosProxyOptions options)
    : options_(std::move(options)),
      rng_(options_.plan.seed ^ 0x9e3779b97f4a7c15ull) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  WSQ_RETURN_IF_ERROR(options_.plan.Validate());
  if (running_.load()) return Status::FailedPrecondition("proxy running");
  Result<Socket> listener = TcpListen(options_.listen_port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener.value());
  Result<int> port = LocalPort(listener_);
  if (!port.ok()) return port.status();
  port_ = port.value();
  SetNonBlocking(listener_.fd(), true);

  epoll_ = std::make_unique<Epoll>();
  wakeup_ = std::make_unique<EventFd>();
  if (!epoll_->valid() || !wakeup_->valid()) {
    return Status::Internal("chaos proxy: epoll/eventfd creation failed");
  }
  WSQ_RETURN_IF_ERROR(epoll_->Add(listener_.fd(), EPOLLIN, kListenerTag));
  WSQ_RETURN_IF_ERROR(epoll_->Add(wakeup_->fd(), EPOLLIN, kWakeupTag));

  running_.store(true);
  loop_ = std::thread([this] { LoopMain(); });
  return Status::Ok();
}

void ChaosProxy::Stop() {
  if (!running_.exchange(false)) {
    if (loop_.joinable()) loop_.join();
    return;
  }
  wakeup_->Signal();
  if (loop_.joinable()) loop_.join();
  listener_.Close();
}

int64_t ChaosProxy::NextRelease() const {
  int64_t next = -1;
  for (const auto& [id, link] : links_) {
    for (const Pipe* pipe : {&link->to_upstream, &link->to_client}) {
      if (pipe->queue.empty()) continue;
      const int64_t at = pipe->queue.front().release_micros;
      if (next < 0 || at < next) next = at;
    }
  }
  return next;
}

void ChaosProxy::LoopMain() {
  const WallClock wall;
  struct epoll_event events[64];
  while (running_.load()) {
    int timeout_ms = kIdleTickMs;
    const int64_t next = NextRelease();
    if (next >= 0) {
      const int64_t now = wall.NowMicros();
      timeout_ms = next <= now
                       ? 0
                       : static_cast<int>(
                             std::min<int64_t>((next - now + 999) / 1000,
                                               kIdleTickMs));
    }
    Result<int> n = epoll_->Wait(events, 64, timeout_ms);
    if (!n.ok()) break;
    for (int i = 0; i < n.value(); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        AcceptReady();
        continue;
      }
      if (tag == kWakeupTag) {
        wakeup_->Drain();
        continue;
      }
      auto it = links_.find(tag / 2);
      if (it == links_.end()) continue;  // stale event after a close
      HandleEvent(*it->second, (tag % 2) == 0, events[i].events);
    }
    // Timer sweep: release every due chunk, propagate FINs, retire
    // fully drained links, re-arm interest.
    const int64_t now = wall.NowMicros();
    std::vector<uint64_t> ids;
    ids.reserve(links_.size());
    for (const auto& [id, link] : links_) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = links_.find(id);
      if (it == links_.end()) continue;
      Link& link = *it->second;
      if (!link.blackhole) {
        if (!FlushPipe(link, link.to_upstream, link.upstream, now)) continue;
        if (!FlushPipe(link, link.to_client, link.client, now)) continue;
        const auto drained = [](const Pipe& p) {
          return p.eof && p.queue.empty();
        };
        if (drained(link.to_upstream) && drained(link.to_client)) {
          CloseLink(link, /*hard=*/false);
          continue;
        }
      } else if (link.to_upstream.eof) {
        // A black hole holds the port open until the client gives up.
        CloseLink(link, /*hard=*/false);
        continue;
      }
      UpdateInterest(link);
    }
  }
  // Loop exit: tear everything down hard (Stop is not a drain).
  std::vector<uint64_t> ids;
  for (const auto& [id, link] : links_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = links_.find(id);
    if (it != links_.end()) CloseLink(*it->second, /*hard=*/true);
  }
}

void ChaosProxy::AcceptReady() {
  for (;;) {
    // Drain the non-blocking listener directly; Accept()'s poll helper
    // would block forever once the backlog is empty.
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained (or listener shut down)
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int64_t ordinal = accepted_.fetch_add(1) + 1;
    auto link = std::make_unique<Link>();
    link->id = next_id_++;
    link->client = Socket(fd);
    SetNonBlocking(link->client.fd(), true);
    link->to_upstream.skip_left = options_.plan.corrupt_skip_bytes;
    link->to_client.skip_left = options_.plan.corrupt_skip_bytes;

    if (ordinal <= options_.plan.blackhole_connections) {
      link->blackhole = true;
      blackholed_.fetch_add(1);
    } else {
      Result<Socket> up =
          TcpConnect(options_.upstream_host, options_.upstream_port,
                     options_.upstream_connect_timeout_ms);
      if (!up.ok()) {
        link->client.Close();
        continue;
      }
      link->upstream = std::move(up.value());
      SetNonBlocking(link->upstream.fd(), true);
      const int64_t relay_ordinal =
          ordinal - options_.plan.blackhole_connections;
      if (options_.plan.drop_connections > 0 &&
          relay_ordinal <= options_.plan.drop_connections) {
        if (options_.plan.drop_direction == NetDropDirection::kToUpstream) {
          link->to_upstream.drop = true;
        } else if (options_.plan.drop_direction ==
                   NetDropDirection::kToClient) {
          link->to_client.drop = true;
        }
      }
      if (!epoll_->Add(link->upstream.fd(), EPOLLIN, link->id * 2 + 1)
               .ok()) {
        link->client.Close();
        continue;
      }
      link->upstream_interest = EPOLLIN;
    }
    if (!epoll_->Add(link->client.fd(), EPOLLIN, link->id * 2).ok()) {
      if (link->upstream.valid()) epoll_->Remove(link->upstream.fd());
      continue;
    }
    link->client_interest = EPOLLIN;
    links_[link->id] = std::move(link);
  }
}

void ChaosProxy::HandleEvent(Link& link, bool client_side, uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseLink(link, /*hard=*/false);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    if (!ReadSide(link, client_side)) return;
  }
  // EPOLLOUT (and the post-event sweep) drain via FlushPipe in LoopMain.
}

bool ChaosProxy::ReadSide(Link& link, bool client_side) {
  const WallClock wall;
  Socket& src = client_side ? link.client : link.upstream;
  Pipe& pipe = client_side ? link.to_upstream : link.to_client;
  char buf[kReadChunkBytes];
  for (;;) {
    if (!link.blackhole && pipe.buffered >= options_.max_buffered_bytes) {
      return true;  // backpressure: stop reading until the sink drains
    }
    const ssize_t n = ::recv(src.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      if (link.blackhole || pipe.drop) {
        dropped_bytes_.fetch_add(n);
        continue;
      }
      ShapeInto(pipe, buf, static_cast<size_t>(n), wall.NowMicros());
      continue;
    }
    if (n == 0) {
      pipe.eof = true;
      return true;  // FIN propagates once the queue drains
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    CloseLink(link, /*hard=*/false);
    return false;
  }
}

void ChaosProxy::ShapeInto(Pipe& pipe, const char* data, size_t len,
                           int64_t now_micros) {
  const NetFaultPlan& plan = options_.plan;
  std::string bytes(data, len);

  // Corruption: flip one random bit of one byte beyond the per-pipe
  // handshake window, within the lifetime budget.
  const size_t skip_now = std::min(pipe.skip_left, len);
  pipe.skip_left -= skip_now;
  if (plan.corrupt_probability > 0.0 && len > skip_now &&
      (plan.corrupt_max == 0 || corruptions_done_ < plan.corrupt_max) &&
      rng_.Bernoulli(plan.corrupt_probability)) {
    const int64_t idx = rng_.UniformInt(static_cast<int64_t>(skip_now),
                                        static_cast<int64_t>(len) - 1);
    bytes[static_cast<size_t>(idx)] ^=
        static_cast<char>(1u << rng_.UniformInt(0, 7));
    corrupted_bytes_.fetch_add(1);
    ++corruptions_done_;
  }

  // Release scheduling: a per-pipe meter enforces inter-chunk spacing
  // (bandwidth byte-time, trickle interval); latency+jitter shift each
  // piece's release on top of the meter without compounding.
  const size_t piece_len =
      plan.trickle_bytes > 0 ? plan.trickle_bytes : bytes.size();
  if (pipe.meter_micros < now_micros) pipe.meter_micros = now_micros;
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t take = std::min(piece_len, bytes.size() - offset);
    // Serialization first: the chunk's own byte-time (store-and-forward)
    // advances the meter *before* release, so N bytes through a B-byte/s
    // cap genuinely take N/B seconds — the first chunk does not ride
    // free. Latency+jitter then shift the release without compounding.
    double spacing_us = 0.0;
    if (plan.bandwidth_bytes_per_sec > 0.0) {
      spacing_us += static_cast<double>(take) * 1e6 /
                    plan.bandwidth_bytes_per_sec;
    }
    if (plan.trickle_bytes > 0) {
      spacing_us = std::max(spacing_us, plan.trickle_interval_ms * 1000.0);
    }
    pipe.meter_micros += static_cast<int64_t>(spacing_us);
    double delay_us = plan.latency_ms * 1000.0;
    if (plan.jitter_ms > 0.0) {
      delay_us += rng_.Uniform(0.0, plan.jitter_ms * 1000.0);
    }
    Chunk chunk;
    chunk.release_micros =
        pipe.meter_micros + static_cast<int64_t>(delay_us);
    chunk.bytes = bytes.substr(offset, take);
    pipe.buffered += take;
    pipe.queue.push_back(std::move(chunk));
    offset += take;
  }
}

bool ChaosProxy::FlushPipe(Link& link, Pipe& pipe, Socket& dst,
                           int64_t now_micros) {
  const NetFaultPlan& plan = options_.plan;
  while (!pipe.queue.empty() &&
         pipe.queue.front().release_micros <= now_micros) {
    Chunk& head = pipe.queue.front();
    const ssize_t n =
        ::send(dst.fd(), head.bytes.data() + pipe.cursor,
               head.bytes.size() - pipe.cursor, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      CloseLink(link, /*hard=*/false);
      return false;
    }
    pipe.cursor += static_cast<size_t>(n);
    pipe.buffered -= static_cast<size_t>(n);
    forwarded_bytes_.fetch_add(n);
    link.relayed += n;
    if (plan.reset_after_bytes >= 0 &&
        link.relayed >= plan.reset_after_bytes &&
        (plan.max_resets == 0 ||
         resets_injected_.load() < plan.max_resets)) {
      resets_injected_.fetch_add(1);
      CloseLink(link, /*hard=*/true);
      return false;
    }
    if (pipe.cursor == head.bytes.size()) {
      pipe.queue.pop_front();
      pipe.cursor = 0;
    }
  }
  if (pipe.queue.empty() && pipe.eof && !pipe.fin_sent && dst.valid()) {
    ::shutdown(dst.fd(), SHUT_WR);
    pipe.fin_sent = true;
  }
  return true;
}

void ChaosProxy::UpdateInterest(Link& link) {
  const WallClock wall;
  const int64_t now = wall.NowMicros();
  const auto want_for = [&](bool client_side) -> uint32_t {
    Pipe& inbound = client_side ? link.to_upstream : link.to_client;
    Pipe& outbound = client_side ? link.to_client : link.to_upstream;
    uint32_t want = 0;
    if (!inbound.eof &&
        (link.blackhole || inbound.buffered < options_.max_buffered_bytes)) {
      want |= EPOLLIN;
    }
    // EPOLLOUT only while a *due* chunk could not be written — a not-yet-
    // due head is the timer's job, not the readiness set's.
    if (!link.blackhole && !outbound.queue.empty() &&
        outbound.queue.front().release_micros <= now) {
      want |= EPOLLOUT;
    }
    return want;
  };
  const uint32_t client_want = want_for(true);
  if (client_want != link.client_interest && link.client.valid()) {
    if (epoll_->Modify(link.client.fd(), client_want, link.id * 2).ok()) {
      link.client_interest = client_want;
    }
  }
  if (link.upstream.valid()) {
    const uint32_t up_want = want_for(false);
    if (up_want != link.upstream_interest) {
      if (epoll_->Modify(link.upstream.fd(), up_want, link.id * 2 + 1)
              .ok()) {
        link.upstream_interest = up_want;
      }
    }
  }
}

void ChaosProxy::CloseLink(Link& link, bool hard) {
  if (link.client.valid()) {
    epoll_->Remove(link.client.fd());
    if (hard) {
      link.client.CloseHard();
    } else {
      link.client.Close();
    }
  }
  if (link.upstream.valid()) {
    epoll_->Remove(link.upstream.fd());
    if (hard) {
      link.upstream.CloseHard();
    } else {
      link.upstream.Close();
    }
  }
  links_.erase(link.id);  // invalidates `link`
}

}  // namespace wsq::net
