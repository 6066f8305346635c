#include "journal/replay.hpp"

namespace trader::journal {

namespace {

/// kSlotDown payload bits; any other bit fails replay closed.
constexpr std::uint8_t kSlotDownOrderly = 1;
constexpr std::uint8_t kSlotDownFailed = 2;

}  // namespace

HubJournal::HubJournal(JournalConfig config, runtime::MetricsRegistry* metrics)
    : config_(std::move(config)),
      store_(config_.dir, config_.retain_checkpoints) {
  if (metrics != nullptr) {
    appends_ = &metrics->counter("hub.journal.appends");
    append_bytes_ = &metrics->counter("hub.journal.append_bytes");
    append_errors_ = &metrics->counter("hub.journal.append_errors");
    checkpoints_ = &metrics->counter("hub.journal.checkpoints");
    recoveries_ = &metrics->counter("hub.journal.recoveries");
    replayed_ = &metrics->counter("hub.journal.replayed_records");
    truncated_bytes_ = &metrics->counter("hub.journal.truncated_bytes");
  }
}

JournalRecoveryInfo HubJournal::recover(
    const std::vector<Checkpointable*>& parts, ReplaySink& sink) {
  JournalRecoveryInfo info;
  info.attempted = true;
  abandoned_ = false;
  writer_.close();
  if (!ensure_dir(config_.dir)) {
    info.ok = false;
    info.error = "cannot create journal dir " + config_.dir;
    return info;
  }

  std::uint64_t checkpoint_seq = 0;
  std::string error;
  if (store_.load_latest(parts, &checkpoint_seq, &error)) {
    info.from_checkpoint = true;
    info.checkpoint_seq = checkpoint_seq;
  } else if (!error.empty()) {
    // A snapshot exists but refuses to load: software mismatch, not
    // bit rot — restoring guessed state would be worse than failing.
    info.ok = false;
    info.error = error;
    return info;
  }

  bool dispatch_ok = true;
  std::string dispatch_error;
  const WalScanResult scanned = scan_wal(
      config_.dir, checkpoint_seq, /*repair_tail=*/true,
      [&](const WalRecord& rec) {
        switch (rec.type) {
          case WalRecordType::kFrame: {
            // The payload is the exact encoded wire frame; re-decode it
            // through the same fail-closed decoder live traffic uses.
            ipc::FrameDecoder decoder;
            decoder.feed(rec.payload.data(), rec.payload.size());
            ipc::Frame frame;
            if (decoder.next(frame) != ipc::DecodeStatus::kOk) {
              dispatch_ok = false;
              dispatch_error = "checksum-valid WAL record " +
                               std::to_string(rec.seq) +
                               " holds an undecodable frame";
              return false;
            }
            sink.replay_frame(rec.slot, frame);
            break;
          }
          case WalRecordType::kSlotUp: {
            Decoder dec(rec.payload.data(), rec.payload.size());
            const std::uint8_t version = dec.u8();
            if (!dec.done()) {
              dispatch_ok = false;
              dispatch_error = "malformed slot-up payload at seq " +
                               std::to_string(rec.seq);
              return false;
            }
            sink.replay_slot_up(rec.slot, version);
            break;
          }
          case WalRecordType::kSlotDown: {
            Decoder dec(rec.payload.data(), rec.payload.size());
            const std::uint8_t flags = dec.u8();
            if (!dec.done() ||
                (flags & ~(kSlotDownOrderly | kSlotDownFailed)) != 0) {
              dispatch_ok = false;
              dispatch_error = "malformed slot-down payload at seq " +
                               std::to_string(rec.seq);
              return false;
            }
            sink.replay_slot_down(rec.slot, (flags & kSlotDownOrderly) != 0,
                                  (flags & kSlotDownFailed) != 0);
            break;
          }
          case WalRecordType::kTick:
            sink.replay_tick(rec.time);
            break;
        }
        ++info.replayed_records;
        return true;
      });

  info.wal_status = scanned.status;
  info.truncated_bytes = scanned.truncated_bytes;
  if (!dispatch_ok) {
    info.ok = false;
    info.error = dispatch_error;
    return info;
  }
  if (!scanned.usable()) {
    info.ok = false;
    info.error = scanned.error;
    return info;
  }

  const std::uint64_t next_seq =
      (scanned.last_seq > checkpoint_seq ? scanned.last_seq : checkpoint_seq) +
      1;
  if (!writer_.open(config_.dir, next_seq, config_.segment_bytes,
                    config_.fsync)) {
    info.ok = false;
    info.error = "cannot open WAL writer in " + config_.dir;
    return info;
  }
  records_since_checkpoint_ = 0;
  if (recoveries_) recoveries_->inc();
  if (replayed_) replayed_->inc(info.replayed_records);
  if (truncated_bytes_) truncated_bytes_->inc(info.truncated_bytes);
  return info;
}

void HubJournal::append(WalRecordType type, const std::string& slot,
                        runtime::SimTime time, const std::uint8_t* payload,
                        std::size_t payload_len) {
  if (abandoned_ || !writer_.is_open()) return;
  const std::uint64_t before = writer_.stats().bytes;
  if (writer_.append(type, slot, time, payload, payload_len) == 0) {
    if (append_errors_) append_errors_->inc();
    return;
  }
  ++records_since_checkpoint_;
  if (appends_) appends_->inc();
  if (append_bytes_) append_bytes_->inc(writer_.stats().bytes - before);
}

void HubJournal::append_frame(const std::string& slot,
                              const ipc::Frame& frame) {
  if (abandoned_ || !writer_.is_open()) return;
  const std::vector<std::uint8_t> bytes = ipc::encode_frame(frame);
  if (bytes.empty()) {
    if (append_errors_) append_errors_->inc();
    return;
  }
  append(WalRecordType::kFrame, slot, frame.time, bytes.data(), bytes.size());
}

void HubJournal::append_slot_up(const std::string& slot, std::uint8_t version,
                                runtime::SimTime now) {
  const std::uint8_t payload[1] = {version};
  append(WalRecordType::kSlotUp, slot, now, payload, 1);
}

void HubJournal::append_slot_down(const std::string& slot, bool orderly,
                                  bool failed, runtime::SimTime now) {
  const std::uint8_t payload[1] = {static_cast<std::uint8_t>(
      (orderly ? kSlotDownOrderly : 0) | (failed ? kSlotDownFailed : 0))};
  append(WalRecordType::kSlotDown, slot, now, payload, 1);
}

void HubJournal::append_tick(runtime::SimTime now) {
  append(WalRecordType::kTick, std::string(), now, nullptr, 0);
}

void HubJournal::on_batch_end(const std::vector<Checkpointable*>& parts) {
  if (abandoned_ || !writer_.is_open()) return;
  writer_.sync();
  if (config_.checkpoint_every_records > 0 &&
      records_since_checkpoint_ >= config_.checkpoint_every_records) {
    checkpoint_now(parts);
  }
}

bool HubJournal::checkpoint_now(const std::vector<Checkpointable*>& parts) {
  if (abandoned_ || !writer_.is_open()) return false;
  // The snapshot claims coverage up to last_seq; those records must be
  // durable first or a crash between the two writes would leave a
  // checkpoint pointing past the end of the surviving WAL.
  writer_.sync(/*force=*/true);
  std::string error;
  if (!store_.write(writer_.last_seq(), parts, &error)) return false;
  records_since_checkpoint_ = 0;
  retire_wal_segments(config_.dir, writer_.last_seq());
  if (checkpoints_) checkpoints_->inc();
  return true;
}

void HubJournal::abandon() {
  // Drop the fd without fsync: whatever the page cache already holds
  // is what survives, same as a real SIGKILL.
  writer_.close_nosync();
  abandoned_ = true;
}

}  // namespace trader::journal
