#include "net/workload.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "sim/logging.hh"

namespace indra::net
{

namespace
{

/** Probability an instruction slot issues a nested call. */
constexpr double callProb = 0.012;
/** Elevated call probability in a function's preamble: real call
 * graphs chain (wrapper -> helper -> leaf), which makes call/return
 * records arrive at the monitor in bursts. */
constexpr double preambleCallProb = 0.10;
/** Probability a call kicks off a leaf-call run (dispatch loops and
 * string helpers produce dense call/return record bursts). */
constexpr double leafBurstProb = 0.05;
/** Call probability while a leaf run is active. */
constexpr double leafRunCallProb = 0.5;
/** Fraction of loads that read the stack instead of data pages. */
constexpr double stackLoadFraction = 0.15;
/** Line size used for write planning (== backup granularity). */
constexpr std::uint32_t planLineBytes = 64;
/** Probability a load streams on from the previous load address. */
constexpr double seqLoadProb = 0.78;
/** Probability a store fills the next word of the same line. */
constexpr double seqStoreProb = 0.65;

} // anonymous namespace

// ------------------------------------------------------------ DrawPlan

DrawPlan::DrawPlan(const ServiceProgram &prog_ref, std::uint32_t page_bytes)
    : prog(prog_ref), profile(prog_ref.profile()), pageBytes(page_bytes),
      pageMask(Addr{page_bytes} - 1),
      plannedPages(std::min(profile.pagesPerRequest, profile.dataPages)),
      longjmp(profile.longjmpProb), heapAlloc(profile.heapAllocProb),
      coldCall(profile.coldCallFraction),
      libraryCall(profile.libraryCallFraction),
      indirectCall(profile.indirectCallFraction),
      leafBurst(leafBurstProb), stackLoad(stackLoadFraction),
      stackStore(profile.stackStoreFraction), seqLoad(seqLoadProb),
      seqStore(seqStoreProb),
      loadBelow(Chance::belowThreshold(profile.loadFraction)),
      storeBelow(Chance::belowThreshold(profile.loadFraction +
                                        profile.storeFraction)),
      callBelow(Chance::belowThreshold(
          profile.loadFraction + profile.storeFraction + callProb)),
      preambleCallBelow(Chance::belowThreshold(
          profile.loadFraction + profile.storeFraction + preambleCallProb)),
      leafRunCallBelow(Chance::belowThreshold(
          profile.loadFraction + profile.storeFraction + leafRunCallProb)),
      appFunction(prog_ref.appFunctionCount()),
      libFunction(prog_ref.libFunctionCount()),
      dataPage(profile.dataPages), plannedPage(plannedPages),
      pageLine(page_bytes / planLineBytes), lineWord(planLineBytes / 8),
      stackOffset(192), leafRunLength(15),
      hotFunction(std::min(profile.hotFunctions,
                           prog_ref.appFunctionCount()),
                  profile.hotZipf),
      dataPageRank(profile.dataPages, profile.dataZipf),
      blockRepeats(profile.blockRepeat > 1.0 ? 1.0 / profile.blockRepeat
                                             : 1.0)
{
    std::uint32_t lines_per_page = pageLine.range();
    dirtyLines = static_cast<std::uint32_t>(
        std::lround(profile.dirtyLineFraction * lines_per_page));
    if (dirtyLines == 0)
        dirtyLines = 1;
    if (dirtyLines > lines_per_page)
        dirtyLines = lines_per_page;
    writableLine = BoundedDraw(dirtyLines);
    panic_if(!isPowerOf2(page_bytes), "page size not a power of 2");
}

// ---------------------------------------------------- RequestExecution

RequestExecution::RequestExecution(const DrawPlan &plan_ref, Pcg32 rng_in,
                                   AttackKind attack_kind,
                                   bool surface_dormant, double weight)
    : plan(plan_ref), prog(plan_ref.prog), profile(plan_ref.profile),
      rng(rng_in), attack(attack_kind), surfaceDormant(surface_dormant),
      pageBytes(plan_ref.pageBytes)
{
    double mean = static_cast<double>(profile.instrPerRequest) * weight;
    double spread = mean * profile.instrCv;
    double len = mean + (rng.uniformReal() * 2.0 - 1.0) * spread;
    if (len < 1000)
        len = 1000;
    budget = static_cast<std::uint64_t>(len);
    // Exploit payloads corrupt state early, while the request is
    // being parsed (~10% into processing); dormant damage likewise
    // surfaces when the damaged structure is first consulted.
    triggerBudget = static_cast<std::uint64_t>(len * 0.9);
    sp = prog.stackTop() - 128;
    // The stream may be drawn on a thread that must not allocate: at
    // most max(maxCallDepth, 1) frames are ever live.
    frames.reserve(profile.maxCallDepth + 1);
    exploitSeq.reserve(maxExploitInstrs);
    // Some requests exercise the daemon's setjmp/longjmp error
    // handling (malformed-but-harmless input bails back to the
    // dispatcher's setjmp point).
    if (plan.longjmp.draw(rng))
        longjmpAtBudget = budget / 2;
    planPages();
    buildEventQueue();
}

void
RequestExecution::planPages()
{
    std::unordered_set<std::uint32_t> chosen;
    std::uint32_t want = plan.plannedPages;
    std::uint32_t attempts = 0;
    while (chosen.size() < want && attempts < want * 12) {
        ++attempts;
        chosen.insert(plan.dataPageRank.draw(rng));
    }
    while (chosen.size() < want)
        chosen.insert(plan.dataPage.draw(rng));

    for (std::uint32_t idx : chosen) {
        PagePlan page;
        page.base = prog.dataBase() +
            static_cast<Addr>(idx) * pageBytes;
        std::unordered_set<std::uint16_t> lines;
        while (lines.size() < plan.dirtyLines) {
            lines.insert(
                static_cast<std::uint16_t>(plan.pageLine.draw(rng)));
        }
        page.writableLines.assign(lines.begin(), lines.end());
        pages.push_back(std::move(page));
    }
}

void
RequestExecution::buildEventQueue()
{
    for (std::uint32_t i = 0; i < profile.filesPerRequest; ++i) {
        events.push_back(EvKind::Open);
        events.push_back(EvKind::Close);
    }
    for (std::uint32_t i = 0; i < profile.ioWritesPerRequest; ++i)
        events.push_back(EvKind::IoWrite);
    events.push_back(EvKind::Log);
    if (plan.heapAlloc.draw(rng))
        events.push_back(EvKind::Alloc);
    // The per-slot event draw, ratioChance(pending, budget), equals
    // bernoulli(pending / budget) only within these bounds.
    panic_if(events.size() >= (std::size_t{1} << 21) ||
                 budget >= (std::uint64_t{1} << 53),
             "request event queue or budget too large to draw exactly");
}

std::vector<Vpn>
RequestExecution::plannedPages() const
{
    std::vector<Vpn> out;
    out.reserve(pages.size());
    for (const PagePlan &p : pages)
        out.push_back(p.base / pageBytes);
    return out;
}

std::uint32_t
RequestExecution::pickFunction()
{
    if (plan.coldCall.draw(rng))
        return plan.appFunction.draw(rng);
    return plan.hotFunction.draw(rng);
}

std::uint32_t
RequestExecution::drawRepeats()
{
    return 1 + plan.blockRepeats.draw(rng);
}

Addr
RequestExecution::randomDataLineAddr(bool writable)
{
    const PagePlan &page = pages[plan.plannedPage.draw(rng)];
    std::uint32_t line;
    if (writable)
        line = page.writableLines[plan.writableLine.draw(rng)];
    else
        line = plan.pageLine.draw(rng);
    std::uint32_t word = plan.lineWord.draw(rng);
    return page.base + static_cast<Addr>(line) * planLineBytes +
        static_cast<Addr>(word) * 8;
}

Addr
RequestExecution::nextLoadAddr()
{
    // Request parsing streams through buffers: most loads continue
    // sequentially within the current page.
    if (seqLoadAddr != 0 && plan.seqLoad.draw(rng)) {
        Addr next = seqLoadAddr + 8;
        if ((next & plan.pageMask) != 0) {
            seqLoadAddr = next;
            return next;
        }
    }
    seqLoadAddr = randomDataLineAddr(false);
    return seqLoadAddr;
}

Addr
RequestExecution::nextStoreAddr()
{
    // Stores fill a line word-by-word (string/struct construction)
    // but never leave their planned writable line, so the dirty-line
    // density stays profile-controlled.
    if (seqStoreAddr != 0 && plan.seqStore.draw(rng)) {
        Addr next = seqStoreAddr + 8;
        if (next % planLineBytes != 0) {
            seqStoreAddr = next;
            return next;
        }
    }
    seqStoreAddr = randomDataLineAddr(true);
    return seqStoreAddr;
}

Addr
RequestExecution::stackScratchAddr()
{
    Addr base = sp > prog.stackBase() + 256 ? sp : prog.stackBase() + 256;
    Addr a = base + plan.stackOffset.draw(rng);
    return alignDown(a, 8);
}

void
RequestExecution::pushCall(cpu::Instruction &out, Addr call_pc,
                           bool indirect)
{
    std::uint32_t fn_idx;
    if (indirect && plan.libraryCall.draw(rng) &&
        prog.libFunctionCount() > 0) {
        fn_idx = prog.appFunctionCount() + plan.libFunction.draw(rng);
    } else {
        fn_idx = pickFunction();
    }
    const ProgramFunction &fn = prog.function(fn_idx);

    out.op = indirect ? cpu::Op::CallInd : cpu::Op::Call;
    out.pc = call_pc;
    out.target = fn.entry;
    out.effAddr = sp;

    Frame frame;
    frame.fnIdx = fn_idx;
    frame.entry = fn.entry;
    frame.blocks = fn.blocks;
    frame.repsLeft = drawRepeats();
    frame.retAddr = call_pc + 4;
    frame.spAtEntry = sp;
    frames.push_back(frame);
    sp -= 64;
}

void
RequestExecution::emitReturn(cpu::Instruction &out)
{
    Frame &fr = frames.back();
    out.op = cpu::Op::Return;
    out.pc = fr.entry + static_cast<Addr>(fr.blocks) *
        ServiceProgram::blockBytes;
    out.target = fr.retAddr;
    out.effAddr = fr.spAtEntry;
    sp = fr.spAtEntry;
    frames.pop_back();
}

void
RequestExecution::emitEvent(cpu::Instruction &out, Addr pc)
{
    EvKind ev = events[nextEvent++];
    out.pc = pc;
    out.op = cpu::Op::Syscall;
    switch (ev) {
      case EvKind::Open:
        out.imm = static_cast<std::uint32_t>(cpu::SyscallNo::OpenFile);
        out.value = rng.next();
        break;
      case EvKind::Close:
        out.imm = static_cast<std::uint32_t>(cpu::SyscallNo::CloseFile);
        out.value = 0;  // close the newest descriptor
        break;
      case EvKind::IoWrite:
        out.op = cpu::Op::IoWrite;
        out.effAddr = 0xf0000000ULL;
        break;
      case EvKind::Log:
        out.imm = static_cast<std::uint32_t>(cpu::SyscallNo::WriteLog);
        out.value = count;
        break;
      case EvKind::Alloc:
        out.imm = static_cast<std::uint32_t>(cpu::SyscallNo::AllocPages);
        out.value = 1;
        break;
    }
}

void
RequestExecution::emitBodyInstr(cpu::Instruction &out)
{
    Frame &fr = frames.back();

    // Function body exhausted: return to the caller.
    if (fr.curBlock >= fr.blocks) {
        emitReturn(out);
        return;
    }

    Addr pc = fr.entry +
        static_cast<Addr>(fr.curBlock) * ServiceProgram::blockBytes +
        static_cast<Addr>(fr.instrInBlock) * cpu::instrBytes;

    // Interleave queued syscall/I-O events.
    bool called = false;
    if (nextEvent < events.size() && budget > 0 &&
        ratioChance(rng, events.size() - nextEvent, budget)) {
        emitEvent(out, pc);
    } else {
        std::uint32_t r = rng.next();
        out.pc = pc;
        if (r < plan.loadBelow) {
            out.op = cpu::Op::Load;
            out.effAddr = plan.stackLoad.draw(rng) ? stackScratchAddr()
                                                   : nextLoadAddr();
        } else if (r < plan.storeBelow) {
            out.op = cpu::Op::Store;
            out.effAddr = plan.stackStore.draw(rng) ? stackScratchAddr()
                                                    : nextStoreAddr();
            out.value = (static_cast<std::uint64_t>(rng.next()) << 32) |
                rng.next();
        } else if (std::uint64_t call_below = burstCallsLeft > 0
                       ? plan.leafRunCallBelow
                       : ((fr.curBlock == 0 && fr.instrInBlock < 3)
                              ? plan.preambleCallBelow
                              : plan.callBelow);
                   r < call_below &&
                   frames.size() < profile.maxCallDepth &&
                   budget > 64) {
            bool indirect = plan.indirectCall.draw(rng);
            bool leaf = false;
            if (burstCallsLeft > 0) {
                --burstCallsLeft;
                leaf = true;
            } else if (plan.leafBurst.draw(rng)) {
                burstCallsLeft = 6 + plan.leafRunLength.draw(rng);
            }
            pushCall(out, pc, indirect);
            if (leaf) {
                // Leaf helpers: one block, no loops — they return
                // almost immediately, densifying the record stream.
                frames.back().blocks = 1;
                frames.back().repsLeft = 1;
            }
            // pushCall replaced the running frame's position; the
            // caller resumes at pc + 4 when the callee returns, which
            // the block bookkeeping below models.
            called = true;
        } else {
            out.op = cpu::Op::Alu;
        }
    }

    // Advance intra-function position (the frame reference may have
    // been invalidated by pushCall's push; re-take it).
    Frame &cur = called ? frames[frames.size() - 2] : frames.back();
    if (++cur.instrInBlock >= ServiceProgram::blockBytes /
            cpu::instrBytes) {
        cur.instrInBlock = 0;
        if (cur.repsLeft > 1) {
            --cur.repsLeft;  // loop: re-execute the same block
        } else {
            ++cur.curBlock;
            cur.repsLeft = drawRepeats();
        }
    }
}

void
RequestExecution::buildExploit()
{
    exploitSeq.clear();
    exploitIdx = 0;
    Addr stack_payload = prog.stackBase() + 0x100;
    Addr shell_addr = prog.stackBase() + 0x400;
    Addr got_addr = prog.dataBase() + 0x40;
    Addr bad_target = prog.dataBase() + 0x800;
    Addr pc = frames.empty()
        ? prog.dispatcherAddr()
        : frames.back().entry;

    auto store = [&](Addr ea, std::uint64_t v) {
        cpu::Instruction i;
        i.op = cpu::Op::Store;
        i.pc = pc;
        i.effAddr = ea;
        i.value = v;
        exploitSeq.push_back(i);
    };
    auto scribble = [&](std::uint32_t n) {
        for (std::uint32_t k = 0; k < n; ++k)
            store(randomDataLineAddr(true), 0xdeadbeefcafe0000ULL + k);
    };
    auto crash_and_halt = [&] {
        cpu::Instruction c;
        c.op = cpu::Op::Syscall;
        c.pc = pc;
        c.imm = static_cast<std::uint32_t>(cpu::SyscallNo::Crash);
        exploitSeq.push_back(c);
        cpu::Instruction h;
        h.op = cpu::Op::Halt;
        h.pc = pc;
        exploitSeq.push_back(h);
    };
    auto run_at = [&](Addr where, std::uint32_t n) {
        for (std::uint32_t k = 0; k < n; ++k) {
            cpu::Instruction i;
            i.op = cpu::Op::Alu;
            i.pc = where + static_cast<Addr>(k) * cpu::instrBytes;
            exploitSeq.push_back(i);
        }
    };

    switch (attack) {
      case AttackKind::StackSmash: {
        // Overflow a stack buffer up to and over the return address.
        for (std::uint32_t k = 0; k < 16; ++k)
            store(stack_payload + k * 8, 0x4141414141414141ULL);
        cpu::Instruction ret;
        ret.op = cpu::Op::Return;
        ret.pc = pc;
        ret.target = stack_payload;  // hijacked return
        ret.effAddr = sp;
        exploitSeq.push_back(ret);
        frames.clear();  // control flow never unwinds normally
        run_at(stack_payload, 16);   // executing off the stack
        scribble(8);
        crash_and_halt();
        break;
      }

      case AttackKind::CodeInjection: {
        for (std::uint32_t k = 0; k < 8; ++k)
            store(shell_addr + k * 8, 0x90909090ec83e589ULL);
        cpu::Instruction jmp;
        jmp.op = cpu::Op::JumpInd;
        jmp.pc = pc;
        jmp.target = shell_addr;
        exploitSeq.push_back(jmp);
        run_at(shell_addr, 24);
        scribble(8);
        crash_and_halt();
        break;
      }

      case AttackKind::FuncPtrHijack: {
        store(got_addr, bad_target);  // overwrite the function pointer
        cpu::Instruction call;
        call.op = cpu::Op::CallInd;
        call.pc = pc;
        call.target = bad_target;
        call.effAddr = sp;
        exploitSeq.push_back(call);
        run_at(bad_target, 12);
        scribble(6);
        crash_and_halt();
        break;
      }

      case AttackKind::FormatString: {
        // %n-style writes corrupt several words, then a hijacked call.
        for (std::uint32_t k = 0; k < 6; ++k)
            store(got_addr + k * 8, bad_target + k * 16);
        cpu::Instruction call;
        call.op = cpu::Op::CallInd;
        call.pc = pc;
        call.target = bad_target;
        call.effAddr = sp;
        exploitSeq.push_back(call);
        run_at(bad_target, 12);
        scribble(6);
        crash_and_halt();
        break;
      }

      case AttackKind::DosFlood: {
        // Teardrop-style state corruption: no hijack, just damage
        // followed by a service failure.
        scribble(24);
        crash_and_halt();
        break;
      }

      case AttackKind::Dormant: {
        // Quietly damage persistent structures; the request finishes
        // normally and the fault surfaces requests later.
        for (std::uint32_t k = 0; k < 4; ++k)
            store(prog.dataBase() + k * pageBytes, 0x0bad0bad0badULL);
        break;
      }

      case AttackKind::None:
        break;
    }
    panic_if(exploitSeq.size() > maxExploitInstrs,
             "exploit payload outgrew its reservation");
}

bool
RequestExecution::next(cpu::Instruction &out)
{
    out = cpu::Instruction{};
    for (;;) {
        switch (phase) {
          case Phase::Prologue: {
            if (prologueStep == 0) {
                out.op = cpu::Op::Syscall;
                out.pc = prog.dispatcherAddr();
                out.imm = static_cast<std::uint32_t>(
                    cpu::SyscallNo::RequestCheckpoint);
                ++prologueStep;
            } else {
                out.op = cpu::Op::Setjmp;
                out.pc = prog.dispatcherAddr() + 4;
                out.imm = 1;
                phase = Phase::Body;
            }
            ++count;
            return true;
          }

          case Phase::Body: {
            // A benign request that trips planted dormant damage fails
            // in the middle of processing.
            if (surfaceDormant && budget <= triggerBudget) {
                if (!crashEmitted) {
                    out.op = cpu::Op::Syscall;
                    out.pc = prog.dispatcherAddr() + 12;
                    out.imm = static_cast<std::uint32_t>(
                        cpu::SyscallNo::Crash);
                    crashEmitted = true;
                } else {
                    out.op = cpu::Op::Halt;
                    out.pc = prog.dispatcherAddr() + 16;
                    phase = Phase::Done;
                }
                ++count;
                return true;
            }

            if (attack != AttackKind::None && !exploitDone &&
                budget <= triggerBudget) {
                buildExploit();
                exploitDone = true;
                phase = Phase::Exploit;
                continue;
            }

            if (budget == 0) {
                phase = Phase::Unwind;
                continue;
            }

            // Non-local error exit: longjmp back to the dispatcher's
            // setjmp env, abandoning the whole call stack.
            if (longjmpAtBudget != 0 && !longjmpDone &&
                budget <= longjmpAtBudget && !frames.empty()) {
                longjmpDone = true;
                out.op = cpu::Op::Longjmp;
                out.pc = frames.back().entry;
                out.target = prog.dispatcherAddr() + 8;  // after setjmp
                out.imm = 1;
                frames.clear();
                sp = prog.stackTop() - 128;
                --budget;
                ++count;
                return true;
            }

            if (frames.empty()) {
                Addr pc = prog.dispatcherAddr() + 8 +
                    (topCalls % 5) * cpu::instrBytes;
                ++topCalls;
                pushCall(out, pc, false);
            } else {
                emitBodyInstr(out);
            }
            --budget;
            ++count;
            return true;
          }

          case Phase::Exploit: {
            if (exploitIdx < exploitSeq.size()) {
                out = exploitSeq[exploitIdx++];
                ++count;
                return true;
            }
            if (attack == AttackKind::Dormant) {
                phase = Phase::Body;  // dormant attacks finish the request
                continue;
            }
            phase = Phase::Done;
            return false;
          }

          case Phase::Unwind: {
            if (!frames.empty()) {
                emitReturn(out);
                ++count;
                return true;
            }
            phase = Phase::Epilogue;
            continue;
          }

          case Phase::Epilogue: {
            if (nextEvent < events.size()) {
                emitEvent(out, prog.dispatcherAddr() + 20);
                ++count;
                return true;
            }
            out.op = cpu::Op::Halt;
            out.pc = prog.dispatcherAddr() + 24;
            phase = Phase::Done;
            ++count;
            return true;
          }

          case Phase::Done:
            return false;
        }
        return false;
    }
}

// --------------------------------------------------- ServiceApplication

ServiceApplication::ServiceApplication(const DaemonProfile &profile,
                                       std::uint64_t seed,
                                       std::uint32_t page_bytes)
    : _profile(profile), prog(profile, seed, page_bytes),
      plan(prog, page_bytes),
      rng(seed ^ 0x77eeddccbbaa0099ULL,
          std::hash<std::string>{}(profile.name) | 1)
{
}

RequestExecution
ServiceApplication::beginRequest(const ServiceRequest &req)
{
    bool surface = false;
    if (req.attack == AttackKind::Dormant) {
        dormantSurfaceAt = req.seq + dormantDelay;
        _dormantDomain = req.domain;
    } else if (req.attack == AttackKind::None && dormantSurfaceAt &&
               req.seq >= *dormantSurfaceAt) {
        surface = true;
    }
    return RequestExecution(plan, rng.fork(), req.attack, surface,
                            req.weight);
}

} // namespace indra::net
