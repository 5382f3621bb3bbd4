// System: the top-level facade — a board plus a kernel at a chosen prototype
// stage, with provisioned filesystem images. This is the library's main
// public entry point: examples, tests and benches construct a System, boot
// it, start programs, inject input, and take screenshots.
#ifndef VOS_SRC_VOS_SYSTEM_H_
#define VOS_SRC_VOS_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/fsimage.h"
#include "src/hw/board.h"
#include "src/kernel/kernel.h"
#include "src/ulib/bmp.h"

namespace vos {

struct SystemOptions {
  Stage stage = Stage::kProto5;
  Platform platform = Platform::kPi3;
  OsProfile os = OsProfile::kOurs;
  unsigned cores = 4;
  std::uint64_t dram_size = MiB(64);
  bool real_hardware = true;       // junk DRAM, as on silicon
  bool usb_keyboard = true;
  // Generate media assets (VOG track, VMV clips, slides) onto the FAT
  // partition. Off by default: encoding costs host time.
  bool with_media_assets = false;
  std::uint32_t media_video_w = 320;  // asset clip geometry (multiple of 16)
  std::uint32_t media_video_h = 240;
  int media_video_frames = 30;
  FsSpec extra_root;  // additional root (xv6fs) content
  FsSpec extra_fat;   // additional FAT32 content
  // USB thumb drive (the §4.4 future-work mass-storage class): when present,
  // its superfloppy FAT volume mounts at /u.
  bool usb_storage = false;
  FsSpec usb_stick;
  // Apply a tweak to the config between construction and boot.
  std::function<void(KernelConfig&)> config_hook;
};

class System {
 public:
  explicit System(SystemOptions opt = {});
  ~System();

  Board& board() { return *board_; }
  Kernel& kernel() { return *kernel_; }
  const SystemOptions& options() const { return opt_; }
  const Kernel::BootReport& boot_report() const { return boot_report_; }

  // Runs the machine for `dur` of virtual time.
  void Run(Cycles dur) { kernel_->RunFor(dur); }

  // Starts /bin/<name> as a new user program (no shell involved).
  Task* Start(const std::string& name, const std::vector<std::string>& extra_args = {});

  // Runs the machine until the task exits (or `timeout` virtual time
  // passes); reaps it and returns its exit code, or kErrAgain on timeout.
  std::int64_t WaitProgram(Task* t, Cycles timeout = Sec(300));

  // Convenience: Start + WaitProgram.
  std::int64_t RunProgram(const std::string& name,
                          const std::vector<std::string>& extra_args = {},
                          Cycles timeout = Sec(300));

  // --- Input injection (what a human at the keyboard/HAT does) ---
  void KeyDown(std::uint8_t hid_code, std::uint8_t modifiers = 0);
  void KeyUp(std::uint8_t hid_code);
  // Press + hold-interval + release, advancing virtual time.
  void TapKey(std::uint8_t hid_code, std::uint8_t modifiers = 0, Cycles hold = Ms(40));
  void PressHatButton(unsigned pin);
  void ReleaseHatButton(unsigned pin);

  // --- Observation ---
  // What the display scans out right now.
  Image Screenshot() const;
  std::string SerialOutput() const { return board_->uart().tx_log(); }

  // Builds the standard media FsSpec (VOG track + VMV clips + slides).
  static FsSpec MakeMediaAssets(std::uint32_t video_w, std::uint32_t video_h, int frames);

 private:
  SystemOptions opt_;
  std::unique_ptr<Board> board_;
  std::unique_ptr<Kernel> kernel_;
  Kernel::BootReport boot_report_;
};

}  // namespace vos

#endif  // VOS_SRC_VOS_SYSTEM_H_
