// The 30-syscall interface (§3): task management, filesystem, and
// threading/synchronization, plus the mmap/cacheflush pair Prototype 3 needs
// for direct rendering and the sync/fsync pair the write-back buffer cache
// needs for durability. Each entry charges the trap cost, enforces the
// prototype stage (earlier prototypes return ENOSYS, as their kernels simply
// lack the code), and emits trace records Fig 11's breakdowns are built from.
#include <cstring>
#include <exception>

#include "src/apps/app_registry.h"
#include "src/base/status.h"
#include "src/kernel/kernel.h"

namespace vos {

Task* Kernel::SyscallEnter(Sys num) {
  Task* cur = CurrentTask();
  VOS_CHECK_MSG(cur != nullptr, "syscall outside task context");
  if (cur->killed && std::uncaught_exceptions() == 0) {
    DoExit(cur, -1);  // the xv6 pattern: kills take effect at the next trap
  }
  cur->saved_domain = cur->domain;
  cur->domain = TimeDomain::kKernel;
  ++cur->syscall_count;
  // Shadow-stack frame for the syscall body, popped by SyscallExit. Manual
  // push/pop instead of RAII because entry and exit are separate calls; a
  // kill/exit unwind leaves the frame behind, but the task is a zombie then
  // and its stack is never sampled again.
  cur->call_stack.push_back(SysName(num));
  cur->fiber().Burn(cfg_.cost.syscall_entry + cfg_.cost.syscall_body);
  cur->syscall_enter_ts = Now();
  trace_.Emit(cur->syscall_enter_ts, cur->core, TraceEvent::kSyscallEnter, cur->pid(),
              static_cast<std::uint64_t>(num));
  return cur;
}

std::int64_t Kernel::SyscallExit(Sys num, std::int64_t ret) {
  Task* cur = CurrentTask();
  cur->fiber().Burn(cfg_.cost.syscall_exit);
  Cycles now = Now();
  // Entry→exit latency, per syscall number and aggregate (Fig 11's
  // distributions, now as histograms instead of raw event pairs).
  Cycles lat = now > cur->syscall_enter_ts ? now - cur->syscall_enter_ts : 0;
  syscall_lat_all_->Record(lat);
  int n = static_cast<int>(num);
  if (n >= 1 && n <= kNumSyscalls) {
    syscall_lat_[n]->Record(lat);
  }
  trace_.Emit(now, cur->core, TraceEvent::kSyscallExit, cur->pid(),
              static_cast<std::uint64_t>(num), static_cast<std::uint64_t>(ret));
  if (!cur->call_stack.empty()) {
    cur->call_stack.pop_back();
  }
  cur->domain = cur->saved_domain;
  return ret;
}

std::int64_t Kernel::InstallFd(Task* cur, FilePtr f) {
  for (std::size_t i = 0; i < cur->fds.size(); ++i) {
    if (cur->fds[i] == nullptr) {
      cur->fds[i] = std::move(f);
      return static_cast<std::int64_t>(i);
    }
  }
  if (cur->fds.size() >= 64) {
    return kErrMFile;
  }
  cur->fds.push_back(std::move(f));
  return static_cast<std::int64_t>(cur->fds.size()) - 1;
}

FilePtr Kernel::GetFd(Task* cur, int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= cur->fds.size()) {
    return nullptr;
  }
  return cur->fds[static_cast<std::size_t>(fd)];
}

// --- Task management ----------------------------------------------------------

std::int64_t Kernel::SysFork(std::function<int()> child_body) {
  Task* cur = SyscallEnter(Sys::kFork);
  if (!cfg_.HasTaskSyscalls()) {
    return SyscallExit(Sys::kFork, kErrNoSys);
  }
  Task* child = NewTask(cur->name(), cur->kernel_task());
  child->parent = cur;
  child->cwd = cur->cwd;
  child->fds = cur->fds;  // shared open-file descriptions
  if (cur->mm != nullptr) {
    child->mm = cur->mm->Clone(cfg_.cow_fork);
    cur->fiber().Burn(cur->mm->TakeCost());
  } else {
    cur->fiber().Burn(cfg_.cost.fork_base);
  }
  AttachUserEntry(child, std::move(child_body));
  sched_.AddNew(child, static_cast<int>(cur->core));
  return SyscallExit(Sys::kFork, child->pid());
}

void Kernel::SysExit(int code) {
  Task* cur = SyscallEnter(Sys::kExit);
  DoExit(cur, code);
}

std::int64_t Kernel::SysWait(int* status) {
  Task* cur = SyscallEnter(Sys::kWait);
  if (!cfg_.HasTaskSyscalls()) {
    return SyscallExit(Sys::kWait, kErrNoSys);
  }
  for (;;) {
    bool have_children = false;
    Pid zombie = 0;
    for (auto& [pid, t] : tasks_) {
      if (t->parent != cur) {
        continue;
      }
      have_children = true;
      if (t->state == TaskState::kZombie) {
        zombie = pid;
        break;
      }
    }
    if (zombie != 0) {
      if (status != nullptr) {
        *status = FindTask(zombie)->exit_code;
      }
      ReapTask(zombie);
      return SyscallExit(Sys::kWait, zombie);
    }
    if (!have_children) {
      return SyscallExit(Sys::kWait, kErrChild);
    }
    if (cur->killed) {
      return SyscallExit(Sys::kWait, kErrPerm);
    }
    sched_.Sleep(cur, cur);
  }
}

std::int64_t Kernel::SysKill(Pid pid) {
  Task* cur = SyscallEnter(Sys::kKill);
  (void)cur;
  if (!cfg_.HasTaskSyscalls()) {
    return SyscallExit(Sys::kKill, kErrNoSys);
  }
  Task* t = FindTask(pid);
  if (t == nullptr || t->state == TaskState::kZombie) {
    return SyscallExit(Sys::kKill, kErrNoEnt);
  }
  t->killed = true;
  if (t->state == TaskState::kSleeping) {
    sched_.WakeTask(t);  // let it notice the kill at its next trap
  }
  return SyscallExit(Sys::kKill, 0);
}

std::int64_t Kernel::SysGetPid() {
  Task* cur = SyscallEnter(Sys::kGetPid);
  return SyscallExit(Sys::kGetPid, cur->pid());
}

std::int64_t Kernel::SysSbrk(std::int64_t delta) {
  Task* cur = SyscallEnter(Sys::kSbrk);
  if (!cfg_.HasVm() || cur->mm == nullptr) {
    return SyscallExit(Sys::kSbrk, kErrNoSys);
  }
  std::int64_t old = cur->mm->Sbrk(delta);
  cur->fiber().Burn(cur->mm->TakeCost());
  return SyscallExit(Sys::kSbrk, old < 0 ? kErrNoMem : old);
}

std::int64_t Kernel::SysSleep(std::uint64_t ms) {
  Task* cur = SyscallEnter(Sys::kSleep);
  Cycles wake_at = Now() + Ms(ms);
  vtimers_->AddAt(wake_at, [this, cur] { sched_.WakeTask(cur); });
  trace_.Emit(Now(), cur->core, TraceEvent::kSleep, cur->pid(), ms);
  sched_.Sleep(cur, cur);
  if (cur->killed && std::uncaught_exceptions() == 0) {
    DoExit(cur, -1);
  }
  return SyscallExit(Sys::kSleep, 0);
}

std::int64_t Kernel::SysUptime() {
  SyscallEnter(Sys::kUptime);
  return SyscallExit(Sys::kUptime, static_cast<std::int64_t>(ToMs(Now())));
}

std::unique_ptr<AddressSpace> Kernel::BuildAddressSpace(const VelfImage& img,
                                                        const std::vector<std::string>& argv,
                                                        Cycles* cost) {
  auto mm = std::make_unique<AddressSpace>(*pmm_, frame_refs_, cfg_);
  if (img.heap_reserve > 0) {
    mm->heap_reserve_pages = PageRoundUp(img.heap_reserve) / kPageSize;
  }
  for (const VelfSegment& seg : img.segments) {
    std::uint64_t npages = PageRoundUp(seg.memsz) / kPageSize;
    if (!mm->MapAnon(seg.vaddr, npages, (seg.flags & 1) != 0 || seg.type == kVelfSegData)) {
      return nullptr;
    }
    // Zero BSS then copy the payload: loaders must not leak junk DRAM.
    for (std::uint64_t p = 0; p < npages; ++p) {
      auto pa = mm->Translate(seg.vaddr + p * kPageSize);
      VOS_CHECK(pa.has_value());
      pmm_->mem().Fill(*pa, 0, kPageSize);
    }
    if (!seg.payload.empty()) {
      // Segment pages were just mapped read-write capable; use the physical
      // path since code segments are read-only at the PTE level.
      std::uint64_t off = 0;
      while (off < seg.payload.size()) {
        auto pa = mm->Translate(seg.vaddr + off);
        VOS_CHECK(pa.has_value());
        std::uint64_t take = std::min<std::uint64_t>(kPageSize - (off % kPageSize),
                                                     seg.payload.size() - off);
        pmm_->mem().Write(*pa, seg.payload.data() + off, take);
        off += take;
      }
      *cost += Cycles(seg.payload.size() * cfg_.cost.memcpy_per_byte);
    }
  }
  if (!mm->SetupStack()) {
    return nullptr;
  }
  // Copy argv onto the stack (the one demand-mapped top page).
  std::uint64_t sp = kUserStackTop;
  for (const std::string& a : argv) {
    sp -= a.size() + 1;
    if (!mm->CopyOut(sp, a.c_str(), a.size() + 1)) {
      return nullptr;
    }
  }
  *cost += mm->TakeCost() + cfg_.cost.exec_base;
  return mm;
}

std::int64_t Kernel::SysExec(const std::string& path, const std::vector<std::string>& argv) {
  Task* cur = SyscallEnter(Sys::kExec);
  if (!cfg_.HasVm()) {
    return SyscallExit(Sys::kExec, kErrNoSys);
  }
  if (cur->is_thread) {
    return SyscallExit(Sys::kExec, kErrInval);
  }
  std::vector<std::uint8_t> bytes;
  Cycles burn = 0;
  std::int64_t r = LoadVelf(path, &bytes, &burn);
  cur->fiber().Burn(burn);
  if (r < 0) {
    return SyscallExit(Sys::kExec, r);
  }
  auto img = ParseVelf(bytes.data(), bytes.size());
  if (!img) {
    return SyscallExit(Sys::kExec, kErrInval);
  }
  const AppMain* entry = AppRegistry::Instance().Find(img->entry);
  if (entry == nullptr) {
    return SyscallExit(Sys::kExec, kErrNoEnt);
  }
  Cycles cost = 0;
  auto mm = BuildAddressSpace(*img, argv, &cost);
  cur->fiber().Burn(cost);
  if (mm == nullptr) {
    return SyscallExit(Sys::kExec, kErrNoMem);
  }
  cur->mm = std::move(mm);
  cur->set_name(img->entry);
  // A process exec'd with no inherited descriptors gets the console as
  // stdin/stdout/stderr — what init sets up in xv6 before running the shell.
  if (cfg_.HasFiles() && cur->fds.empty()) {
    for (int i = 0; i < 3; ++i) {
      FilePtr f;
      Cycles b = 0;
      if (vfs_->Open(cur, "/dev/console", i == 0 ? kORdonly : kOWronly, &f, &b) == 0) {
        InstallFd(cur, std::move(f));
      }
    }
  }
  SyscallExit(Sys::kExec, 0);

  // Jump to the new image: run the app's main on this task, then exit with
  // its return code. Never returns.
  AppEnv env;
  env.kernel = this;
  env.task = cur;
  env.argv = argv;
  cur->domain = TimeDomain::kUser;
  int rc = (*entry)(env);
  SysExit(rc);
}

// --- Files ---------------------------------------------------------------------

std::int64_t Kernel::SysOpen(const std::string& path, std::uint32_t flags) {
  Task* cur = SyscallEnter(Sys::kOpen);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kOpen, kErrNoSys);
  }
  FilePtr f;
  Cycles burn = 0;
  std::int64_t r = vfs_->Open(cur, path, flags, &f, &burn);
  cur->fiber().Burn(burn);
  if (r < 0) {
    return SyscallExit(Sys::kOpen, r);
  }
  return SyscallExit(Sys::kOpen, InstallFd(cur, std::move(f)));
}

std::int64_t Kernel::SysClose(int fd) {
  Task* cur = SyscallEnter(Sys::kClose);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kClose, kErrNoSys);
  }
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    return SyscallExit(Sys::kClose, kErrBadFd);
  }
  cur->fds[static_cast<std::size_t>(fd)] = nullptr;
  vfs_->Close(cur, f);
  return SyscallExit(Sys::kClose, 0);
}

std::int64_t Kernel::SysRead(int fd, void* buf, std::uint32_t n) {
  Task* cur = SyscallEnter(Sys::kRead);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kRead, kErrNoSys);
  }
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    return SyscallExit(Sys::kRead, kErrBadFd);
  }
  Cycles burn = 0;
  std::int64_t r;
  if (f->kind == FileKind::kSocket) {
    r = net_->Recv(cur, *f->sock, static_cast<std::uint8_t*>(buf), n, f->nonblock, &burn);
  } else if (f->kind == FileKind::kPipe) {
    r = f->pipe->Read(cur, static_cast<std::uint8_t*>(buf), n, f->nonblock);
    burn += cfg_.cost.pipe_op + Cycles((r > 0 ? r : 0) * cfg_.cost.pipe_per_byte);
  } else {
    r = vfs_->Read(cur, *f, static_cast<std::uint8_t*>(buf), n, &burn);
    if (r > 0) {
      burn += Cycles(r * cfg_.cost.memcpy_per_byte);  // copyout to user
    }
  }
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kRead, r);
}

std::int64_t Kernel::SysWrite(int fd, const void* buf, std::uint32_t n) {
  Task* cur = SyscallEnter(Sys::kWrite);
  if (!cfg_.HasFiles()) {
    // Prototype 3: write() is hardwired to the UART for debugging (§4.3).
    Cycles c = klog_.Puts(Now(), std::string(static_cast<const char*>(buf), n));
    cur->fiber().Burn(c);
    return SyscallExit(Sys::kWrite, n);
  }
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    return SyscallExit(Sys::kWrite, kErrBadFd);
  }
  Cycles burn = 0;
  std::int64_t r;
  if (f->kind == FileKind::kSocket) {
    r = net_->Send(cur, *f->sock, static_cast<const std::uint8_t*>(buf), n, f->nonblock, &burn);
  } else if (f->kind == FileKind::kPipe) {
    r = f->pipe->Write(cur, static_cast<const std::uint8_t*>(buf), n, f->nonblock);
    burn += cfg_.cost.pipe_op + Cycles((r > 0 ? r : 0) * cfg_.cost.pipe_per_byte);
  } else {
    r = vfs_->Write(cur, *f, static_cast<const std::uint8_t*>(buf), n, &burn);
  }
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kWrite, r);
}

std::int64_t Kernel::SysLseek(int fd, std::int64_t off, int whence) {
  Task* cur = SyscallEnter(Sys::kLseek);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kLseek, kErrNoSys);
  }
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    return SyscallExit(Sys::kLseek, kErrBadFd);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->Lseek(*f, off, whence, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kLseek, r);
}

std::int64_t Kernel::SysDup(int fd) {
  Task* cur = SyscallEnter(Sys::kDup);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kDup, kErrNoSys);
  }
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    return SyscallExit(Sys::kDup, kErrBadFd);
  }
  return SyscallExit(Sys::kDup, InstallFd(cur, f));
}

std::int64_t Kernel::SysPipe(int fds[2]) {
  Task* cur = SyscallEnter(Sys::kPipe);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kPipe, kErrNoSys);
  }
  auto pipe = std::make_shared<Pipe>(sched_);
  pipe->SetBytesPerWakeupHist(metrics_.Hist("pipe.bytes_per_wakeup"));
  auto rf = std::make_shared<File>();
  rf->kind = FileKind::kPipe;
  rf->readable = true;
  rf->pipe = pipe;
  rf->pipe_write_end = false;
  auto wf = std::make_shared<File>();
  wf->kind = FileKind::kPipe;
  wf->writable = true;
  wf->pipe = pipe;
  wf->pipe_write_end = true;
  std::int64_t r0 = InstallFd(cur, rf);
  std::int64_t r1 = InstallFd(cur, wf);
  if (r0 < 0 || r1 < 0) {
    return SyscallExit(Sys::kPipe, kErrMFile);
  }
  fds[0] = static_cast<int>(r0);
  fds[1] = static_cast<int>(r1);
  cur->fiber().Burn(cfg_.cost.pipe_op);
  return SyscallExit(Sys::kPipe, 0);
}

std::int64_t Kernel::SysFstat(int fd, Stat* st) {
  Task* cur = SyscallEnter(Sys::kFstat);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kFstat, kErrNoSys);
  }
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    return SyscallExit(Sys::kFstat, kErrBadFd);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->FStat(*f, st, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kFstat, r);
}

std::int64_t Kernel::SysChdir(const std::string& path) {
  Task* cur = SyscallEnter(Sys::kChdir);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kChdir, kErrNoSys);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->Chdir(cur, path, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kChdir, r);
}

std::int64_t Kernel::SysMkdir(const std::string& path) {
  Task* cur = SyscallEnter(Sys::kMkdir);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kMkdir, kErrNoSys);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->Mkdir(cur, path, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kMkdir, r);
}

std::int64_t Kernel::SysUnlink(const std::string& path) {
  Task* cur = SyscallEnter(Sys::kUnlink);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kUnlink, kErrNoSys);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->Unlink(cur, path, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kUnlink, r);
}

std::int64_t Kernel::SysLink(const std::string& oldp, const std::string& newp) {
  Task* cur = SyscallEnter(Sys::kLink);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kLink, kErrNoSys);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->Link(cur, oldp, newp, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kLink, r);
}

std::int64_t Kernel::SysMknod(const std::string& path, std::int16_t major, std::int16_t minor) {
  Task* cur = SyscallEnter(Sys::kMknod);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kMknod, kErrNoSys);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->Mknod(cur, path, major, minor, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kMknod, r);
}

std::int64_t Kernel::SysSync() {
  Task* cur = SyscallEnter(Sys::kSync);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kSync, kErrNoSys);
  }
  // Vfs::Sync drains the journal (commit + checkpoint everything) before the
  // cache-wide flush; any flush that exhausted its retries latched kErrIo on
  // the device, and sync is the durability point where the caller learns
  // about it (errseq-style, consumed exactly once).
  Cycles burn = 0;
  std::int64_t r = vfs_->Sync(&burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kSync, r);
}

std::int64_t Kernel::SysFsync(int fd) {
  Task* cur = SyscallEnter(Sys::kFsync);
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kFsync, kErrNoSys);
  }
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    return SyscallExit(Sys::kFsync, kErrBadFd);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->Fsync(*f, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kFsync, r);
}

std::int64_t Kernel::SysReadDir(const std::string& path, std::vector<DirEntryInfo>* out) {
  Task* cur = SyscallEnter(Sys::kOpen);  // accounted as an open-class call
  if (!cfg_.HasFiles()) {
    return SyscallExit(Sys::kOpen, kErrNoSys);
  }
  Cycles burn = 0;
  std::int64_t r = vfs_->ReadDir(cur, path, out, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kOpen, r);
}

// --- Memory / devices ------------------------------------------------------------

std::int64_t Kernel::SysMmapFb(std::uint32_t** pixels, std::uint32_t* w, std::uint32_t* h) {
  Task* cur = SyscallEnter(Sys::kMmap);
  if (!cfg_.HasVm()) {
    return SyscallExit(Sys::kMmap, kErrNoSys);
  }
  if (!fb_driver_->ready()) {
    return SyscallExit(Sys::kMmap, kErrIo);
  }
  if (cur->mm != nullptr) {
    if (!cur->mm->MapFramebuffer(board_.fb().size_bytes())) {
      return SyscallExit(Sys::kMmap, kErrNoMem);
    }
    cur->fiber().Burn(cur->mm->TakeCost());
  }
  *pixels = fb_driver_->pixels();
  *w = fb_driver_->width();
  *h = fb_driver_->height();
  return SyscallExit(Sys::kMmap, 0);
}

std::int64_t Kernel::SysCacheFlush(std::uint64_t off, std::uint64_t len) {
  Task* cur = SyscallEnter(Sys::kCacheFlush);
  // EL0 cannot flush the cache itself (§4.3); this is the kernel service.
  cur->fiber().Burn(fb_driver_->Flush(off, len));
  return SyscallExit(Sys::kCacheFlush, 0);
}

// --- Threads / synchronization ----------------------------------------------------

std::int64_t Kernel::SysClone(std::function<int()> thread_body) {
  Task* cur = SyscallEnter(Sys::kClone);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kClone, kErrNoSys);
  }
  Task* child = NewTask(cur->name() + "-thr", cur->kernel_task());
  child->parent = cur;
  child->cwd = cur->cwd;
  child->fds = cur->fds;
  child->mm = cur->mm;  // CLONE_VM: share the mm struct (§4.5)
  child->is_thread = true;
  AttachUserEntry(child, std::move(thread_body));
  sched_.AddNew(child);
  cur->fiber().Burn(cfg_.cost.fork_base / 3);  // no address-space copy
  return SyscallExit(Sys::kClone, child->pid());
}

std::int64_t Kernel::SysSemCreate(int initial) {
  Task* cur = SyscallEnter(Sys::kSemCreate);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kSemCreate, kErrNoSys);
  }
  (void)cur;
  return SyscallExit(Sys::kSemCreate, sems_->Create(initial));
}

std::int64_t Kernel::SysSemWait(int id) {
  Task* cur = SyscallEnter(Sys::kSemWait);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kSemWait, kErrNoSys);
  }
  return SyscallExit(Sys::kSemWait, sems_->Wait(cur, id));
}

std::int64_t Kernel::SysSemPost(int id) {
  Task* cur = SyscallEnter(Sys::kSemPost);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kSemPost, kErrNoSys);
  }
  (void)cur;
  return SyscallExit(Sys::kSemPost, sems_->Post(id));
}

// --- Futex IPC --------------------------------------------------------------------

std::int64_t Kernel::SysIpcCreate(std::uint64_t bytes) {
  Task* cur = SyscallEnter(Sys::kIpcCreate);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kIpcCreate, kErrNoSys);
  }
  cur->fiber().Burn(cfg_.cost.ipc_create);
  return SyscallExit(Sys::kIpcCreate, ipcs_->Create(static_cast<std::size_t>(bytes)));
}

std::int64_t Kernel::SysIpcMap(int id, IpcRing** out) {
  Task* cur = SyscallEnter(Sys::kIpcMap);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kIpcMap, kErrNoSys);
  }
  IpcRing* r = ipcs_->Ring(id);
  if (r == nullptr) {
    return SyscallExit(Sys::kIpcMap, kErrInval);
  }
  // Maps the ring into the caller (page-table work); afterwards the task
  // pushes/pops the shared memory directly, without kernel entries.
  cur->fiber().Burn(cfg_.cost.ipc_map);
  *out = r;
  return SyscallExit(Sys::kIpcMap, 0);
}

std::int64_t Kernel::SysIpcWait(int id, int side, std::uint64_t expected) {
  Task* cur = SyscallEnter(Sys::kIpcWait);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kIpcWait, kErrNoSys);
  }
  if (side != 0 && side != 1) {
    return SyscallExit(Sys::kIpcWait, kErrInval);
  }
  return SyscallExit(Sys::kIpcWait,
                     ipcs_->Wait(cur, id, static_cast<IpcSide>(side), expected));
}

std::int64_t Kernel::SysIpcWake(int id, int side) {
  Task* cur = SyscallEnter(Sys::kIpcWake);
  if (!cfg_.HasThreads()) {
    return SyscallExit(Sys::kIpcWake, kErrNoSys);
  }
  if (side != 0 && side != 1) {
    return SyscallExit(Sys::kIpcWake, kErrInval);
  }
  cur->fiber().Burn(cfg_.cost.wakeup);
  return SyscallExit(Sys::kIpcWake, ipcs_->Wake(id, static_cast<IpcSide>(side)));
}

std::int64_t Kernel::SysYield() {
  Task* cur = SyscallEnter(Sys::kSleep);
  sched_.Yield(cur);
  return SyscallExit(Sys::kSleep, 0);
}

// --- Socket syscalls (Prototype 5 networking). Every entry point is gated on
// net_, which boot builds only when HasNet() holds and the board has a NIC:
// pre-proto5 stages and nic-less boards report kErrNoSys, exactly like the
// other staged feature families.

std::int64_t Kernel::SysSocket(int type, std::uint32_t flags) {
  Task* cur = SyscallEnter(Sys::kSocket);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kSocket, kErrNoSys);
  }
  if (type != 0 && type != 1) {
    return SyscallExit(Sys::kSocket, kErrInval);
  }
  auto f = std::make_shared<File>();
  f->kind = FileKind::kSocket;
  f->readable = true;
  f->writable = true;
  f->nonblock = (flags & 1u) != 0;
  f->sock = net_->CreateSocket(type == 0 ? Socket::Type::kTcp : Socket::Type::kUdp);
  cur->fiber().Burn(cfg_.cost.sock_op);
  std::int64_t fd = InstallFd(cur, std::move(f));
  return SyscallExit(Sys::kSocket, fd < 0 ? kErrMFile : fd);
}

FilePtr Kernel::GetSockFd(Task* cur, int fd, std::int64_t* err) {
  FilePtr f = GetFd(cur, fd);
  if (f == nullptr) {
    *err = kErrBadFd;
    return nullptr;
  }
  if (f->kind != FileKind::kSocket) {
    *err = kErrInval;
    return nullptr;
  }
  return f;
}

std::int64_t Kernel::SysBind(int fd, std::uint16_t port) {
  Task* cur = SyscallEnter(Sys::kBind);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kBind, kErrNoSys);
  }
  std::int64_t err = 0;
  FilePtr f = GetSockFd(cur, fd, &err);
  if (f == nullptr) {
    return SyscallExit(Sys::kBind, err);
  }
  cur->fiber().Burn(cfg_.cost.sock_op);
  return SyscallExit(Sys::kBind, net_->Bind(*f->sock, port));
}

std::int64_t Kernel::SysListen(int fd, std::uint32_t backlog) {
  Task* cur = SyscallEnter(Sys::kListen);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kListen, kErrNoSys);
  }
  std::int64_t err = 0;
  FilePtr f = GetSockFd(cur, fd, &err);
  if (f == nullptr) {
    return SyscallExit(Sys::kListen, err);
  }
  cur->fiber().Burn(cfg_.cost.sock_op);
  return SyscallExit(Sys::kListen, net_->Listen(*f->sock, backlog));
}

std::int64_t Kernel::SysAccept(int fd, std::uint32_t* peer_ip, std::uint16_t* peer_port,
                               std::uint32_t flags) {
  Task* cur = SyscallEnter(Sys::kAccept);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kAccept, kErrNoSys);
  }
  std::int64_t err = 0;
  FilePtr f = GetSockFd(cur, fd, &err);
  if (f == nullptr) {
    return SyscallExit(Sys::kAccept, err);
  }
  std::shared_ptr<Socket> conn;
  Cycles burn = 0;
  std::int64_t r = net_->Accept(cur, *f->sock, f->nonblock, &conn, peer_ip, peer_port, &burn);
  cur->fiber().Burn(burn);
  if (r < 0) {
    return SyscallExit(Sys::kAccept, r);
  }
  auto nf = std::make_shared<File>();
  nf->kind = FileKind::kSocket;
  nf->readable = true;
  nf->writable = true;
  nf->nonblock = (flags & 1u) != 0;
  nf->sock = std::move(conn);
  std::int64_t nfd = InstallFd(cur, nf);
  if (nfd < 0) {
    vfs_->Close(cur, nf);  // tear the accepted connection down
    return SyscallExit(Sys::kAccept, kErrMFile);
  }
  return SyscallExit(Sys::kAccept, nfd);
}

std::int64_t Kernel::SysConnect(int fd, std::uint32_t ip, std::uint16_t port) {
  Task* cur = SyscallEnter(Sys::kConnect);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kConnect, kErrNoSys);
  }
  std::int64_t err = 0;
  FilePtr f = GetSockFd(cur, fd, &err);
  if (f == nullptr) {
    return SyscallExit(Sys::kConnect, err);
  }
  Cycles burn = 0;
  std::int64_t r = net_->Connect(cur, *f->sock, ip, port, f->nonblock, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kConnect, r);
}

std::int64_t Kernel::SysSend(int fd, const void* buf, std::uint32_t n) {
  Task* cur = SyscallEnter(Sys::kSend);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kSend, kErrNoSys);
  }
  std::int64_t err = 0;
  FilePtr f = GetSockFd(cur, fd, &err);
  if (f == nullptr) {
    return SyscallExit(Sys::kSend, err);
  }
  Cycles burn = 0;
  std::int64_t r =
      net_->Send(cur, *f->sock, static_cast<const std::uint8_t*>(buf), n, f->nonblock, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kSend, r);
}

std::int64_t Kernel::SysRecv(int fd, void* buf, std::uint32_t n) {
  Task* cur = SyscallEnter(Sys::kRecv);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kRecv, kErrNoSys);
  }
  std::int64_t err = 0;
  FilePtr f = GetSockFd(cur, fd, &err);
  if (f == nullptr) {
    return SyscallExit(Sys::kRecv, err);
  }
  Cycles burn = 0;
  std::int64_t r = net_->Recv(cur, *f->sock, static_cast<std::uint8_t*>(buf), n, f->nonblock, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kRecv, r);
}

std::int64_t Kernel::SysShutdown(int fd, int how) {
  Task* cur = SyscallEnter(Sys::kShutdown);
  if (net_ == nullptr) {
    return SyscallExit(Sys::kShutdown, kErrNoSys);
  }
  std::int64_t err = 0;
  FilePtr f = GetSockFd(cur, fd, &err);
  if (f == nullptr) {
    return SyscallExit(Sys::kShutdown, err);
  }
  Cycles burn = 0;
  std::int64_t r = net_->Shutdown(cur, *f->sock, how, &burn);
  cur->fiber().Burn(burn);
  return SyscallExit(Sys::kShutdown, r);
}

std::int64_t Kernel::SyscallRaw(Sys num, std::uint64_t a0, std::uint64_t a1) {
  switch (num) {
    case Sys::kGetPid:
      return SysGetPid();
    case Sys::kUptime:
      return SysUptime();
    case Sys::kSleep:
      return SysSleep(a0);
    case Sys::kSbrk:
      return SysSbrk(static_cast<std::int64_t>(a0));
    case Sys::kClose:
      return SysClose(static_cast<int>(a0));
    case Sys::kDup:
      return SysDup(static_cast<int>(a0));
    case Sys::kKill:
      return SysKill(static_cast<Pid>(a0));
    case Sys::kSemCreate:
      return SysSemCreate(static_cast<int>(a0));
    case Sys::kSemWait:
      return SysSemWait(static_cast<int>(a0));
    case Sys::kSemPost:
      return SysSemPost(static_cast<int>(a0));
    case Sys::kIpcCreate:
      return SysIpcCreate(a0);
    case Sys::kIpcWake:
      return SysIpcWake(static_cast<int>(a0), static_cast<int>(a1));
    case Sys::kCacheFlush:
      return SysCacheFlush(a0, a1);
    case Sys::kSync:
      return SysSync();
    case Sys::kFsync:
      return SysFsync(static_cast<int>(a0));
    default:
      return kErrNoSys;  // pointer-carrying syscalls need the typed interface
  }
}

}  // namespace vos
