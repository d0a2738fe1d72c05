//! Residency planning for partial-simulation tables that exceed the
//! simulation-memory budget (the paper's `M`).
//!
//! A table that fits the budget never comes here: its slot buffer *is*
//! the table. One that does not fit keeps only a window of topological
//! levels device-resident: [`Window::plan`] walks the level schedule
//! once, gives every level a reusable slot interval in one bounded device
//! buffer, and retires a level to host staging once its last reader has
//! run and the next level would otherwise push residency over the budget.
//! The driver ([`crate::partial`]) replays the plan: one `sim.window.spill`
//! launch per retired level, ordered between the level launches (every
//! launch is a barrier).
//!
//! The budget is a *target*, not a hard cap: a level has to be resident
//! together with every level it still reads, so a level wider than the
//! budget (or one with long-lived fanins) overshoots it.

use std::collections::VecDeque;

use parsweep_aig::{Aig, Node};

use crate::partial::{Schedule, Task};

/// First-fit free-interval allocator over a growable column space —
/// assigns each level a contiguous slot interval at plan time, reusing
/// intervals freed by retired levels. The high-water mark is the device
/// buffer size (in columns) the run leases.
#[derive(Debug, Default)]
struct SlotAllocator {
    /// Disjoint, sorted, coalesced free intervals `(off, len)`.
    free: Vec<(usize, usize)>,
    /// Size of the allocated address space so far (grows on demand).
    end: usize,
}

impl SlotAllocator {
    fn alloc(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        for i in 0..self.free.len() {
            let (off, flen) = self.free[i];
            if flen >= len {
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, flen - len);
                }
                return off;
            }
        }
        // No interval fits: grow the space. If the last free interval
        // abuts the end, extend it instead of leaving a hole.
        if let Some(&(off, flen)) = self.free.last() {
            if off + flen == self.end {
                self.free.pop();
                self.end = off + len;
                return off;
            }
        }
        let off = self.end;
        self.end += len;
        off
    }

    fn release(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let idx = self.free.partition_point(|&(o, _)| o < off);
        self.free.insert(idx, (off, len));
        // Coalesce with neighbours.
        if idx + 1 < self.free.len() && self.free[idx].0 + self.free[idx].1 == self.free[idx + 1].0
        {
            self.free[idx].1 += self.free[idx + 1].1;
            self.free.remove(idx + 1);
        }
        if idx > 0 && self.free[idx - 1].0 + self.free[idx - 1].1 == self.free[idx].0 {
            self.free[idx - 1].1 += self.free[idx].1;
            self.free.remove(idx);
        }
    }
}

/// The residency schedule of one over-budget run.
#[derive(Debug)]
pub(crate) struct Window {
    /// Slot-buffer column of each scheduled var while its level is
    /// resident (levels are contiguous, in task order).
    pub(crate) slot_of: Vec<u32>,
    /// Slot buffer size in columns (the residency high-water mark).
    pub(crate) slot_cols: usize,
    /// Levels to spill right after level `g` has executed; every level
    /// appears exactly once (whatever is still resident retires after
    /// the last level).
    pub(crate) retire_after: Vec<Vec<usize>>,
}

impl Window {
    /// Plans `schedule` over `aig` for a budget of `budget_cols` resident
    /// columns. Linear in the schedule: each level enters the retirable
    /// queue once, when its last reader has executed, and leaves it once.
    pub(crate) fn plan(aig: &Aig, schedule: &Schedule, budget_cols: usize) -> Self {
        let num_levels = schedule.num_levels();
        let mut level_of = vec![0u32; aig.num_nodes()];
        for l in 0..num_levels {
            for task in schedule.level(l) {
                level_of[task.var().index()] = l as u32;
            }
        }
        // A level's last reader: the highest level holding an Eval task
        // with a fanin in it (schedules are fanin-closed); a level
        // nothing reads is done as soon as it has executed.
        let mut last_reader: Vec<usize> = (0..num_levels).collect();
        for l in 0..num_levels {
            for task in schedule.level(l) {
                if let Task::Eval(v) = task {
                    if let Node::And(a, b) = aig.node(*v) {
                        for f in [a.var(), b.var()] {
                            let fl = level_of[f.index()] as usize;
                            last_reader[fl] = last_reader[fl].max(l);
                        }
                    }
                }
            }
        }
        let mut done_at: Vec<Vec<usize>> = vec![Vec::new(); num_levels];
        for (l, &g) in last_reader.iter().enumerate() {
            done_at[g].push(l);
        }
        let width = |l: usize| schedule.level(l).len();
        let mut alloc = SlotAllocator::default();
        let mut slot_off = vec![0usize; num_levels];
        let mut slot_of = vec![0u32; aig.num_nodes()];
        let mut retire_after: Vec<Vec<usize>> = vec![Vec::new(); num_levels];
        let mut retirable: VecDeque<usize> = VecDeque::new();
        let mut resident = 0usize;
        for g in 0..num_levels {
            slot_off[g] = alloc.alloc(width(g));
            for (p, task) in schedule.level(g).iter().enumerate() {
                slot_of[task.var().index()] = (slot_off[g] + p) as u32;
            }
            resident += width(g);
            retirable.extend(done_at[g].iter().copied());
            // Make room for the next level (oldest finished level first);
            // after the last level everything left retires.
            let incoming = if g + 1 < num_levels {
                width(g + 1)
            } else {
                usize::MAX
            };
            while resident.saturating_add(incoming) > budget_cols {
                let Some(l) = retirable.pop_front() else {
                    break;
                };
                alloc.release(slot_off[l], width(l));
                resident -= width(l);
                retire_after[g].push(l);
            }
        }
        Window {
            slot_of,
            slot_cols: alloc.end,
            retire_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::Aig;

    /// A `levels`-deep AND chain over two inputs, one node per level.
    fn chain(levels: usize) -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let mut f = aig.and(xs[0], xs[1]);
        for i in 0..levels - 1 {
            f = aig.and(f, !xs[i % 2]);
        }
        aig.add_po(f);
        aig
    }

    #[test]
    fn every_level_retires_exactly_once_and_slots_are_recycled() {
        let aig = chain(5_000);
        let schedule = Schedule::full(&aig);
        assert!(schedule.num_levels() >= 5_000);
        let plan = Window::plan(&aig, &schedule, 0);
        let mut retired: Vec<usize> = plan.retire_after.iter().flatten().copied().collect();
        assert_eq!(retired.len(), schedule.num_levels(), "one retirement each");
        retired.sort_unstable();
        retired.dedup();
        assert_eq!(retired.len(), schedule.num_levels());
        // A chain reads the PI level throughout and the previous level
        // once: residency stays at a handful of columns however deep.
        assert!(
            plan.slot_cols <= 8,
            "slot buffer grew to {} columns",
            plan.slot_cols
        );
    }

    #[test]
    fn a_generous_budget_retires_only_at_the_end() {
        let aig = chain(64);
        let schedule = Schedule::full(&aig);
        let plan = Window::plan(&aig, &schedule, usize::MAX / 2);
        let (last, earlier) = plan.retire_after.split_last().unwrap();
        assert!(earlier.iter().all(Vec::is_empty));
        assert_eq!(last.len(), schedule.num_levels());
        assert_eq!(plan.slot_cols, aig.num_nodes());
    }

    #[test]
    fn allocator_reuses_and_coalesces() {
        let mut a = SlotAllocator::default();
        let x = a.alloc(4);
        let y = a.alloc(4);
        let z = a.alloc(4);
        assert_eq!((x, y, z), (0, 4, 8));
        a.release(x, 4);
        a.release(y, 4);
        assert_eq!(a.alloc(8), 0, "two freed neighbours coalesce");
        assert_eq!(a.end, 12);
    }
}
