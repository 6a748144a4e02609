#ifndef WSQ_SERVER_DATA_SERVICE_H_
#define WSQ_SERVER_DATA_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "wsq/codec/codec.h"
#include "wsq/common/status.h"
#include "wsq/relation/row_block.h"
#include "wsq/server/dbms.h"
#include "wsq/server/service.h"
#include "wsq/soap/message.h"

namespace wsq {

/// The OGSA-DAI-style data service endpoint: wraps a Dbms, owns
/// per-session query cursors, and speaks the message vocabulary of
/// soap/message.h. Faults (unknown table, bad session, malformed XML)
/// are returned as SOAP faults, never as C++ errors — exactly what a
/// remote client would observe.
///
/// Thread-safe: Handle, ActiveSessions and EvictIdleSessions may run
/// concurrently. A short mutex guards the session map; each session has
/// its own mutex, held across its replay-cache check, fetch, encode and
/// cache update. Blocks of different sessions therefore encode in
/// parallel, while requests of one session run one at a time — a retry
/// that races its original replays instead of advancing the cursor
/// twice.
class DataService final : public Service {
 public:
  /// `dbms` must outlive the service.
  explicit DataService(const Dbms* dbms) : dbms_(dbms) {}

  DataService(const DataService&) = delete;
  DataService& operator=(const DataService&) = delete;

  ServiceResult Handle(const std::string& request_document) override;

  /// Codec-aware entry point. Binary block messages (sniffed by magic)
  /// are answered in binary; everything else takes the SOAP path.
  /// `response_codec`, when binary, supplies the encoding options
  /// (compression) for binary responses. Faults are always SOAP
  /// fault envelopes regardless of codec.
  ServiceResult Handle(const std::string& request_document,
                       const codec::BlockCodec* response_codec) override;

  size_t open_sessions() const;

  int64_t ActiveSessions() const override {
    return static_cast<int64_t>(open_sessions());
  }

  int64_t EvictIdleSessions(int64_t now_micros, int64_t idle_micros) override;

 private:
  struct Session {
    /// Serializes this session's block requests (see the class comment).
    /// Guards every field below except last_touch_micros.
    std::mutex mu;
    std::unique_ptr<QueryCursor> cursor;
    /// Idempotent-retry replay cache: the last sequenced block this
    /// session fetched, as a view. A repeated RequestBlock with the same
    /// sequence number re-encodes it instead of re-advancing the cursor
    /// (DESIGN.md §3f). Encoders are deterministic and a replay leaves
    /// the cursor where it was, so the replay is byte-identical to the
    /// original — an encode fault included. The view stays valid: it
    /// reads `cursor`'s projection and rows of an immutable registered
    /// table. Unsequenced requests (-1) bypass the cache.
    int64_t last_sequence = -1;
    RowBlock last_block;
    /// Wall-clock stamp of the last Handle that touched this session
    /// (open or block fetch); what EvictIdleSessions compares against.
    /// Written under the service's map mutex.
    int64_t last_touch_micros = 0;
  };

  ServiceResult HandleOpenSession(const XmlNode& payload);
  ServiceResult HandleRequestBlock(const RequestBlockRequest& request,
                                   const codec::BlockCodec& response_codec);
  ServiceResult HandleCloseSession(const XmlNode& payload);
  ServiceResult HandleBinaryRequest(const std::string& request_document,
                                    const codec::BlockCodec* response_codec);

  static ServiceResult Fault(std::string_view code, std::string_view message);

  const Dbms* dbms_;
  /// Guards next_session_id_, sessions_ and every last_touch_micros.
  /// Never held while a block is fetched or encoded. A closed or evicted
  /// session leaves the map at once; a request already holding its
  /// shared_ptr finishes normally.
  mutable std::mutex mu_;
  int64_t next_session_id_ = 1;
  std::map<int64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace wsq

#endif  // WSQ_SERVER_DATA_SERVICE_H_
