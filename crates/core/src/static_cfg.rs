//! Static control-flow recovery over binary code.
//!
//! Recursive-descent disassembly from a set of entry points, producing
//! basic blocks, intra-procedural edges and a call graph. The discovery
//! pipeline uses it in two places:
//!
//! * enumerating **syscall sites** statically (a cheap complement to the
//!   dynamic monitor: every candidate the monitor reports must be one of
//!   these sites);
//! * sizing and sanity-checking **guarded regions** extracted from
//!   `.pdata` (a scope whose range contains no decodable code is a
//!   parser red flag).

use cr_isa::{decode, Inst};
use cr_symex::CodeSource;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A basic block of decoded instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// VA of the first instruction.
    pub start: u64,
    /// VA one past the last instruction.
    pub end: u64,
    /// Decoded instructions with their VAs.
    pub insts: Vec<(u64, Inst)>,
    /// Intra-procedural successors (VAs of block starts).
    pub successors: Vec<u64>,
}

/// A recovered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionCfg {
    /// Entry VA.
    pub entry: u64,
    /// Blocks keyed by start VA.
    pub blocks: BTreeMap<u64, BasicBlock>,
    /// Direct call targets.
    pub calls: BTreeSet<u64>,
    /// VAs of `syscall` instructions.
    pub syscall_sites: Vec<u64>,
    /// Whether an indirect jump/call bounded the exploration.
    pub has_indirect_flow: bool,
}

impl FunctionCfg {
    /// Total decoded instructions.
    pub fn inst_count(&self) -> usize {
        self.blocks.values().map(|b| b.insts.len()).sum()
    }
}

/// Whole-image static analysis result.
#[derive(Debug, Clone, Default)]
pub struct StaticCfg {
    /// Functions keyed by entry VA.
    pub functions: BTreeMap<u64, FunctionCfg>,
}

impl StaticCfg {
    /// All static syscall sites across all functions.
    pub fn syscall_sites(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .functions
            .values()
            .flat_map(|f| f.syscall_sites.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.functions.values().map(|f| f.inst_count()).sum()
    }
}

/// Per-function step bound (defends against decoding into data).
const MAX_INSTS_PER_FN: usize = 100_000;

/// Recover control flow starting from `entries`, following direct calls
/// transitively.
pub fn analyze(code: &dyn CodeSource, entries: &[u64]) -> StaticCfg {
    let mut cfg = StaticCfg::default();
    let mut fn_queue: VecDeque<u64> = entries.iter().copied().collect();
    let mut seen_fns: BTreeSet<u64> = BTreeSet::new();
    while let Some(entry) = fn_queue.pop_front() {
        if !seen_fns.insert(entry) {
            continue;
        }
        let f = analyze_function(code, entry);
        for &callee in &f.calls {
            fn_queue.push_back(callee);
        }
        cfg.functions.insert(entry, f);
    }
    cfg
}

/// Recover one function's CFG.
pub fn analyze_function(code: &dyn CodeSource, entry: u64) -> FunctionCfg {
    let mut f = FunctionCfg {
        entry,
        blocks: BTreeMap::new(),
        calls: BTreeSet::new(),
        syscall_sites: Vec::new(),
        has_indirect_flow: false,
    };
    let mut block_queue: VecDeque<u64> = VecDeque::from([entry]);
    let mut visited_starts: BTreeSet<u64> = BTreeSet::new();
    let mut decoded = 0usize;

    while let Some(start) = block_queue.pop_front() {
        if !visited_starts.insert(start) {
            continue;
        }
        let mut insts = Vec::new();
        let mut successors = Vec::new();
        let mut va = start;
        loop {
            if decoded >= MAX_INSTS_PER_FN {
                break;
            }
            let mut bytes = [0u8; 15];
            let n = code.read_code(va, &mut bytes);
            if n == 0 {
                break;
            }
            let Ok(d) = decode(&bytes[..n]) else { break };
            decoded += 1;
            let next = va + d.len as u64;
            insts.push((va, d.inst));
            match d.inst {
                Inst::Ret | Inst::Ud2 | Inst::Hlt => break,
                Inst::JmpRel(rel) => {
                    let target = next.wrapping_add(rel as i64 as u64);
                    successors.push(target);
                    block_queue.push_back(target);
                    break;
                }
                Inst::Jcc { rel, .. } => {
                    let taken = next.wrapping_add(rel as i64 as u64);
                    successors.push(taken);
                    successors.push(next);
                    block_queue.push_back(taken);
                    block_queue.push_back(next);
                    break;
                }
                Inst::JmpRm(_) => {
                    f.has_indirect_flow = true;
                    break;
                }
                Inst::CallRel(rel) => {
                    let callee = next.wrapping_add(rel as i64 as u64);
                    f.calls.insert(callee);
                    va = next;
                }
                Inst::CallRm(_) => {
                    f.has_indirect_flow = true;
                    va = next;
                }
                Inst::Syscall => {
                    f.syscall_sites.push(va);
                    va = next;
                }
                _ => va = next,
            }
            // Block splitting: stop if the next VA is a known block start.
            if visited_starts.contains(&va) {
                successors.push(va);
                break;
            }
        }
        let end = insts
            .last()
            .map(|&(v, i)| v + cr_isa::encode(&i).map(|b| b.len() as u64).unwrap_or(1));
        f.blocks.insert(
            start,
            BasicBlock {
                start,
                end: end.unwrap_or(start),
                insts,
                successors,
            },
        );
    }
    f.syscall_sites.sort_unstable();
    f.syscall_sites.dedup();
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_isa::{Asm, Cond, Mem as M, Reg};

    fn src(build: impl FnOnce(&mut Asm)) -> (u64, Vec<u8>) {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        (0x1000, a.assemble().unwrap().code)
    }

    #[test]
    fn straight_line_function() {
        let (base, code) = src(|a| {
            a.mov_ri(Reg::Rax, 1);
            a.add_ri(Reg::Rax, 2);
            a.ret();
        });
        let f = analyze_function(&(base, code.as_slice()), base);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.inst_count(), 3);
        assert!(f.calls.is_empty());
    }

    #[test]
    fn branch_splits_blocks() {
        let (base, code) = src(|a| {
            a.cmp_ri(Reg::Rdi, 0);
            let els = a.fresh();
            a.jcc(Cond::E, els);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(els);
            a.mov_ri(Reg::Rax, 2);
            a.ret();
        });
        let f = analyze_function(&(base, code.as_slice()), base);
        assert_eq!(f.blocks.len(), 3, "entry + both arms");
        let entry = &f.blocks[&base];
        assert_eq!(entry.successors.len(), 2);
    }

    #[test]
    fn call_graph_and_syscall_sites() {
        let (base, code) = src(|a| {
            let helper = a.fresh();
            a.call_label(helper);
            a.mov_ri(Reg::Rax, 60);
            a.syscall();
            a.ret();
            a.bind(helper);
            a.name("helper", helper);
            a.mov_ri(Reg::Rax, 1);
            a.syscall();
            a.ret();
        });
        let cfg = analyze(&(base, code.as_slice()), &[base]);
        assert_eq!(cfg.functions.len(), 2, "entry + helper discovered via call");
        assert_eq!(cfg.syscall_sites().len(), 2);
    }

    #[test]
    fn loop_terminates() {
        let (base, code) = src(|a| {
            let top = a.here();
            a.sub_ri(Reg::Rdi, 1);
            a.cmp_ri(Reg::Rdi, 0);
            a.jcc(Cond::Ne, top);
            a.ret();
        });
        let f = analyze_function(&(base, code.as_slice()), base);
        assert!(f.blocks.len() >= 2);
        // The back edge points at an existing block.
        assert!(f.blocks.values().any(|b| b.successors.contains(&base)));
    }

    #[test]
    fn indirect_flow_is_flagged() {
        let (base, code) = src(|a| {
            a.load(Reg::Rax, M::base(Reg::Rdi));
            a.jmp_reg(Reg::Rax);
        });
        let f = analyze_function(&(base, code.as_slice()), base);
        assert!(f.has_indirect_flow);
    }

    #[test]
    fn static_sites_cover_dynamic_candidates_on_nginx() {
        // Every syscall the dynamic monitor can ever observe must be a
        // statically enumerable site.
        let t = cr_targets::server("nginx").unwrap();
        let seg = &t.image.segments[0];
        let src = (seg.vaddr, seg.data.as_slice());
        let cfg = analyze(&src, &[t.image.entry]);
        let sites = cfg.syscall_sites();
        assert!(
            sites.len() >= 15,
            "nginx-sim has many syscall sites, got {}",
            sites.len()
        );
        assert!(cfg.inst_count() > 100);
    }
}
