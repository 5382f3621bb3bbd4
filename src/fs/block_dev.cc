#include "src/fs/block_dev.h"

#include <algorithm>
#include <cstring>

#include "src/base/assert.h"

namespace vos {

const char* BlockStatusName(BlockStatus s) {
  switch (s) {
    case BlockStatus::kOk:
      return "ok";
    case BlockStatus::kTransient:
      return "transient";
    case BlockStatus::kMedia:
      return "media";
    case BlockStatus::kTimeout:
      return "timeout";
  }
  return "?";
}

namespace {

// Memory-backed transfers, shared by the ramdisk and the span device.
BlockResult MemRead(std::span<const std::uint8_t> bytes, std::uint64_t lba, std::uint32_t count,
                    std::uint8_t* out) {
  VOS_CHECK_MSG((lba + count) * kBlockSize <= bytes.size(), "ramdisk read out of range");
  std::memcpy(out, bytes.data() + lba * kBlockSize, std::size_t(count) * kBlockSize);
  // DRAM-speed "disk": dominated by the memcpy.
  return {BlockStatus::kOk, Us(2) + Cycles(count) * Us(1)};
}

BlockResult MemWrite(std::span<std::uint8_t> bytes, std::uint64_t lba, std::uint32_t count,
                     const std::uint8_t* in) {
  VOS_CHECK_MSG((lba + count) * kBlockSize <= bytes.size(), "ramdisk write out of range");
  std::memcpy(bytes.data() + lba * kBlockSize, in, std::size_t(count) * kBlockSize);
  return {BlockStatus::kOk, Us(2) + Cycles(count) * Us(1)};
}

}  // namespace

BlockResult RamDisk::Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) {
  return MemRead(data_, lba, count, out);
}

BlockResult RamDisk::Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) {
  return MemWrite(data_, lba, count, in);
}

BlockResult SpanBlockDevice::Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) {
  return MemRead(bytes_, lba, count, out);
}

BlockResult SpanBlockDevice::Write(std::uint64_t lba, std::uint32_t count,
                                   const std::uint8_t* in) {
  return MemWrite(bytes_, lba, count, in);
}

BlockResult SdBlockDevice::Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) {
  VOS_CHECK_MSG(lba + count <= count_, "sd partition read out of range");
  return {BlockStatus::kOk, card_.ReadBlocks(first_ + lba, count, out, use_dma_)};
}

BlockResult SdBlockDevice::Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) {
  VOS_CHECK_MSG(lba + count <= count_, "sd partition write out of range");
  return {BlockStatus::kOk, card_.WriteBlocks(first_ + lba, count, in, use_dma_)};
}

// --- BlockRequestQueue -------------------------------------------------------

void BlockRequestQueue::Submit(BlockRequest* req) {
  VOS_CHECK_MSG(req != nullptr && !req->done, "submitting a completed request");
  VOS_CHECK_MSG(req->count > 0 && req->buf != nullptr, "malformed block request");
  pending_.push_back(req);
  depth_hw_ = std::max(depth_hw_, static_cast<std::uint32_t>(pending_.size()));
}

Cycles BlockRequestQueue::ServiceOne(BlockRequest* r) {
  Cycles spent = 0;
  Cycles backoff = kBlkRetryBackoff;
  for (;;) {
    BlockResult res = r->op == BlockOp::kRead ? dev_->Read(r->lba, r->count, r->buf)
                                              : dev_->Write(r->lba, r->count, r->buf);
    spent += res.cycles;
    if (res.ok()) {
      r->status = BlockStatus::kOk;
      break;
    }
    if (res.status == BlockStatus::kMedia) {
      r->status = BlockStatus::kMedia;
      ++errors_;
      break;
    }
    if (spent >= kBlkTimeoutBudget) {
      r->status = BlockStatus::kTimeout;
      ++errors_;
      ++timeouts_;
      break;
    }
    if (r->retries >= kBlkMaxRetries) {
      r->status = res.status;
      ++errors_;
      break;
    }
    ++r->retries;
    ++retries_;
    spent += backoff;
    backoff = std::min(backoff * 2, kBlkRetryBackoffCap);
  }
  r->service_time = spent;
  r->done = true;
  return spent;
}

Cycles BlockRequestQueue::CompleteAll() {
  if (pending_.empty()) {
    return 0;
  }
  // Elevator order: one sweep across the platter/flash in ascending LBA.
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const BlockRequest* a, const BlockRequest* b) { return a->lba < b->lba; });
  Cycles total = 0;
  std::size_t i = 0;
  std::vector<std::uint8_t> staging;
  while (i < pending_.size()) {
    // Grow a run of adjacent same-direction requests.
    std::size_t j = i + 1;
    std::uint64_t end = pending_[i]->lba + pending_[i]->count;
    std::uint32_t run_blocks = pending_[i]->count;
    while (j < pending_.size() && pending_[j]->op == pending_[i]->op &&
           pending_[j]->lba == end) {
      end += pending_[j]->count;
      run_blocks += pending_[j]->count;
      ++j;
    }
    Cycles burst = 0;
    if (j == i + 1) {
      BlockRequest* r = pending_[i];
      burst = ServiceOne(r);
      RecordLatency(total + burst);
    } else {
      // Merged burst: one range transfer through a staging buffer, gathering
      // write payloads / scattering read results per request.
      staging.resize(std::size_t(run_blocks) * kBlockSize);
      merged_ += j - i - 1;
      BlockResult res;
      if (pending_[i]->op == BlockOp::kWrite) {
        std::size_t off = 0;
        for (std::size_t k = i; k < j; ++k) {
          std::memcpy(staging.data() + off, pending_[k]->buf,
                      std::size_t(pending_[k]->count) * kBlockSize);
          off += std::size_t(pending_[k]->count) * kBlockSize;
        }
        res = dev_->Write(pending_[i]->lba, run_blocks, staging.data());
      } else {
        res = dev_->Read(pending_[i]->lba, run_blocks, staging.data());
        if (res.ok()) {
          std::size_t off = 0;
          for (std::size_t k = i; k < j; ++k) {
            std::memcpy(pending_[k]->buf, staging.data() + off,
                        std::size_t(pending_[k]->count) * kBlockSize);
            off += std::size_t(pending_[k]->count) * kBlockSize;
          }
        }
      }
      burst = res.cycles;
      if (res.ok()) {
        // Attribute the burst cost pro rata by block count.
        Cycles attributed = 0;
        for (std::size_t k = i; k < j; ++k) {
          BlockRequest* r = pending_[k];
          r->service_time = k + 1 == j ? burst - attributed
                                       : Cycles(double(burst) * r->count / run_blocks);
          attributed += r->service_time;
          r->status = BlockStatus::kOk;
          r->done = true;
          RecordLatency(total + burst);
        }
      } else {
        // The burst failed somewhere in the range. Demote: re-service each
        // member individually so a single bad sector only fails the request
        // that actually covers it, and each request gets its own retry
        // budget. The failed burst attempt's cost is charged to the sweep
        // but not to any one request.
        for (std::size_t k = i; k < j; ++k) {
          BlockRequest* r = pending_[k];
          burst += ServiceOne(r);
          RecordLatency(total + burst);
        }
      }
    }
    total += burst;
    i = j;
  }
  pending_.clear();
  return total;
}

Cycles BlockRequestQueue::SubmitAndWait(BlockRequest* req) {
  Submit(req);
  return CompleteAll();
}

}  // namespace vos
