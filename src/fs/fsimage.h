// Filesystem image builders — the build pipeline's mkfs tools (§3 "OS
// image"): the root xv6fs ramdisk packing every user program as a VELF
// executable under /bin, and the SD card with an MBR partition table and a
// FAT32 partition 2 holding user media files. Population goes through the
// real filesystem write paths, so the builders double as integration tests.
#ifndef VOS_SRC_FS_FSIMAGE_H_
#define VOS_SRC_FS_FSIMAGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/byte_store.h"
#include "src/hw/sd_card.h"

namespace vos {

struct FsEntry {
  std::string path;  // absolute within the volume, e.g. "/roms/world1.lvl"
  std::vector<std::uint8_t> data;
};

struct FsSpec {
  std::vector<std::string> dirs;
  std::vector<FsEntry> files;
};

// Builds the root ramdisk image: an xv6fs of `fsblocks` 1 KB blocks with
// /bin/<app> VELF executables for every registered app, plus `extra` content.
ByteStore BuildRootImage(const FsSpec& extra, std::uint32_t fsblocks = 6144,
                         std::uint32_t ninodes = 256);

// Formats the SD card: MBR with a small partition 1 (kernel image region) and
// a FAT32 partition 2 spanning the rest, populated with `fat_files`. Works in
// the card's own store; blocks the filesystem never touches stay unwritten.
void ProvisionSdCard(SdCard& sd, const FsSpec& fat_files);

// Formats `volume` as FAT32 in place and populates it with `spec` (the SD
// card's partition 2, a superfloppy USB stick).
void ProvisionFatVolume(std::span<std::uint8_t> volume, const FsSpec& spec);

}  // namespace vos

#endif  // VOS_SRC_FS_FSIMAGE_H_
