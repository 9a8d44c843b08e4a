#include "serve/session.h"

namespace manic::serve {

bool Session::Consume(std::string_view bytes, std::string* out) {
  if (dead_) return false;
  assembler_.Feed(bytes);
  MsgType type;
  while (assembler_.Next(&type, &payload_)) {
    ++frames_;
    if (!Dispatch(type, payload_, out)) {
      dead_ = true;
      return false;
    }
  }
  if (assembler_.corrupt()) {
    out->append(EncodeError(kErrCorruptStream, "unparseable frame"));
    dead_ = true;
    return false;
  }
  return true;
}

bool Session::Dispatch(MsgType type, std::string_view payload,
                       std::string* out) {
  if (!hello_done_ && type != MsgType::kHello) {
    out->append(EncodeError(kErrUnexpected, "expected hello"));
    return false;
  }
  switch (type) {
    case MsgType::kHello: {
      std::uint32_t version = 0;
      if (!DecodeHello(payload, &version)) {
        out->append(EncodeError(kErrMalformed, "bad hello"));
        return false;
      }
      if (version != kProtocolVersion) {
        out->append(EncodeError(kErrBadVersion, "unsupported version"));
        return false;
      }
      hello_done_ = true;
      out->append(
          EncodeHelloAck(static_cast<std::uint32_t>(service_->shards())));
      return true;
    }
    case MsgType::kSubmitBatch: {
      if (!DecodeSubmitBatch(payload, &samples_)) {
        out->append(EncodeError(kErrMalformed, "bad submit batch"));
        return false;
      }
      const SubmitSummary summary = service_->SubmitBatch(samples_);
      if (summary.shed != 0) {
        // Degraded (WAL out of space): the shed samples were NOT consumed.
        // Unlike the violations below this keeps the connection — the query
        // plane still works, and the client resubmits after recovery.
        out->append(EncodeError(kErrDegraded, "ingest shed: wal out of space"));
        return true;
      }
      if (summary.rejected != 0) {
        // Out-of-bounds timestamps mark a hostile or broken producer; the
        // admission bounds (service.h) exist so one frame cannot wedge the
        // close loop — drop the connection, don't keep ingesting from it.
        out->append(
            EncodeError(kErrBadTimestamp, "sample timestamp out of bounds"));
        return false;
      }
      // Late samples were consumed (dropped and counted), so a well-behaved
      // client still sees every sample acknowledged.
      out->append(EncodeSubmitAck(summary.accepted + summary.late));
      return true;
    }
    case MsgType::kQueryPoint: {
      topo::LinkId link = 0;
      TimeSec t = 0;
      if (!DecodeQueryPoint(payload, &link, &t)) {
        out->append(EncodeError(kErrMalformed, "bad point query"));
        return false;
      }
      std::vector<VerdictRecord> rows;
      if (const auto v = service_->QueryPoint(link, t)) rows.push_back(*v);
      out->append(EncodeVerdicts(rows));
      return true;
    }
    case MsgType::kQueryRange: {
      topo::LinkId link = 0;
      TimeSec t0 = 0, t1 = 0;
      if (!DecodeQueryRange(payload, &link, &t0, &t1)) {
        out->append(EncodeError(kErrMalformed, "bad range query"));
        return false;
      }
      out->append(EncodeVerdicts(service_->QueryRange(link, t0, t1)));
      return true;
    }
    case MsgType::kQueryQuality: {
      topo::LinkId link = 0;
      if (!DecodeQueryQuality(payload, &link)) {
        out->append(EncodeError(kErrMalformed, "bad quality query"));
        return false;
      }
      const auto q = service_->QueryQuality(link);
      out->append(EncodeQuality(q.has_value(),
                                q.value_or(infer::DataQuality{})));
      return true;
    }
    case MsgType::kQueryStats: {
      if (!payload.empty()) {
        out->append(EncodeError(kErrMalformed, "bad stats query"));
        return false;
      }
      out->append(EncodeStats(service_->Stats()));
      return true;
    }
    case MsgType::kFlush: {
      if (!payload.empty()) {
        out->append(EncodeError(kErrMalformed, "bad flush"));
        return false;
      }
      out->append(EncodeFlushAck(service_->FinishStream()));
      return true;
    }
    case MsgType::kGetWatermark: {
      if (!payload.empty()) {
        out->append(EncodeError(kErrMalformed, "bad watermark request"));
        return false;
      }
      out->append(EncodeWatermark(service_->Watermark()));
      return true;
    }
    // Server-to-client types arriving at the server are protocol violations.
    case MsgType::kHelloAck:
    case MsgType::kSubmitAck:
    case MsgType::kVerdicts:
    case MsgType::kQuality:
    case MsgType::kStats:
    case MsgType::kFlushAck:
    case MsgType::kWatermark:
    case MsgType::kError:
      out->append(EncodeError(kErrUnexpected, "client sent a server frame"));
      return false;
  }
  out->append(EncodeError(kErrUnexpected, "unknown frame"));
  return false;
}

}  // namespace manic::serve
