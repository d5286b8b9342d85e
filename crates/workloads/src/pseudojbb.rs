//! pseudojbb — a fixed-workload model of SPEC JBB2000 (§3.1.1, §3.2.1).
//!
//! SPEC JBB2000 emulates a three-tier order-processing system with data
//! stored in B-trees rather than an external database; `pseudojbb` is the
//! fixed-transaction-count variant the paper benchmarks. This module
//! rebuilds its heap shape and its **three documented memory bugs**:
//!
//! 1. **Customer.lastOrder leak** — destroying an `Order` does not clear
//!    the back reference from its `Customer`, so "destroyed" orders stay
//!    reachable. Fixed by [`JbbBugs::fix_customer_back_ref`].
//! 2. **orderTable BTree leak** (first reported by Jump & McKinley) —
//!    delivered orders are never removed from the `District.orderTable`
//!    B-tree. Fixed by [`JbbBugs::fix_order_table`].
//! 3. **oldCompany drag** — the main loop keeps the previous `Company` in
//!    a local variable for the whole method, delaying reclamation of the
//!    entire old hierarchy by one iteration. Fixed by
//!    [`JbbBugs::fix_old_company_drag`].
//!
//! The class graph matches the paper's Figure 1 path:
//! `Company -> Object[] -> Warehouse -> Object[] -> District ->
//! longBTree -> longBTreeNode -> Object[] -> Order`.

use gc_assertions::{ClassId, MutatorId, ObjRef, Vm, VmError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use crate::runner::Workload;
use crate::structures::HBTree;

/// Which of SPEC JBB2000's bugs are repaired in this run.
#[derive(Debug, Clone, Copy)]
pub struct JbbBugs {
    /// Clear `Customer.lastOrder` when the order it names is destroyed
    /// (repairs leak 1).
    pub fix_customer_back_ref: bool,
    /// Remove delivered orders from the district's orderTable (repairs
    /// leak 2).
    pub fix_order_table: bool,
    /// Null the `oldCompany` local as soon as the old company is
    /// destroyed (repairs drag 3).
    pub fix_old_company_drag: bool,
}

impl JbbBugs {
    /// All bugs present — faithful SPEC JBB2000 behaviour.
    pub(crate) fn all_present() -> JbbBugs {
        JbbBugs {
            fix_customer_back_ref: false,
            fix_order_table: false,
            fix_old_company_drag: false,
        }
    }

    /// All bugs repaired, as after the paper's debugging sessions.
    pub fn all_fixed() -> JbbBugs {
        JbbBugs {
            fix_customer_back_ref: true,
            fix_order_table: true,
            fix_old_company_drag: true,
        }
    }
}

/// Which assertion style instruments the run (§3.2.1 uses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JbbAssertions {
    /// `assert_dead` in the destructors (requires knowing *where* objects
    /// should die) plus `assert_instances(Company, 1)`.
    Dead,
    /// `assert_owned_by(orderTable, order)` at insertion (the "easier way
    /// to detect such problems", per the paper) plus
    /// `assert_instances(Company, 1)`.
    Ownership,
}

/// The pseudojbb workload.
#[derive(Debug, Clone)]
pub struct PseudoJbb {
    /// Warehouses per company.
    pub warehouses: usize,
    /// Districts per warehouse (each has an orderTable B-tree).
    pub districts: usize,
    /// Customers per company.
    pub customers: usize,
    /// Transactions to run.
    pub transactions: usize,
    /// Order lines per order.
    pub orderlines: usize,
    /// Orders outstanding before a delivery transaction fires.
    pub delivery_batch: usize,
    /// Company generations (the main loop destroys and recreates the
    /// company; >1 exercises the oldCompany drag).
    pub company_generations: usize,
    /// Simulated order-processing computation per transaction (heap
    /// reads plus arithmetic); dilutes GC time to a realistic fraction
    /// of total run time, as in the real three-tier benchmark.
    pub compute: usize,
    /// Bug switches.
    pub bugs: JbbBugs,
    /// Assertion style used when the runner enables assertions.
    pub style: JbbAssertions,
    /// Heap budget in words.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PseudoJbb {
    fn default() -> Self {
        PseudoJbb {
            warehouses: 2,
            districts: 3,
            customers: 40,
            transactions: 20_000,
            orderlines: 4,
            delivery_batch: 8,
            company_generations: 1,
            compute: 500,
            bugs: JbbBugs::all_fixed(),
            style: JbbAssertions::Ownership,
            budget: 90_000,
            seed: 0x1BB,
        }
    }
}

impl PseudoJbb {
    /// The configuration used for the Figure 2–5 performance runs: bugs
    /// fixed (so WithAssertions measures checking cost, not violation
    /// reporting) and ownership-style assertions at every order insertion.
    pub fn for_figures() -> PseudoJbb {
        PseudoJbb::default()
    }

    /// The §3.2.1 debugging scenario: all three bugs present,
    /// `assert_dead` instrumentation in the destructors.
    pub fn buggy_with_dead_asserts() -> PseudoJbb {
        PseudoJbb {
            bugs: JbbBugs::all_present(),
            style: JbbAssertions::Dead,
            transactions: 600,
            ..PseudoJbb::default()
        }
    }
}

/// Class handles, registered once per VM.
#[derive(Debug, Clone, Copy)]
struct JbbClasses {
    company: ClassId,
    array: ClassId,
    warehouse: ClassId,
    district: ClassId,
    customer: ClassId,
    order: ClassId,
    orderline: ClassId,
}

fn register_classes(vm: &mut Vm) -> JbbClasses {
    JbbClasses {
        company: vm.register_class("Company", &["warehouses", "customers"]),
        array: vm.register_class("Object[]", &[]),
        warehouse: vm.register_class("Warehouse", &["districts"]),
        district: vm.register_class("District", &["orderTable"]),
        customer: vm.register_class("Customer", &["lastOrder"]),
        order: vm.register_class("Order", &["customer", "orderLines"]),
        orderline: vm.register_class("OrderLine", &[]),
    }
}

/// One company hierarchy plus the driver-side bookkeeping a real JBB
/// driver would hold in locals.
#[derive(Debug)]
struct World {
    company: ObjRef,
    customers: Vec<ObjRef>,
    /// One order table per (warehouse, district).
    districts: Vec<HBTree>,
    /// Undelivered order ids per district (driver-side queue).
    pending: Vec<VecDeque<u64>>,
    next_order_id: u64,
}

fn build_world(
    vm: &mut Vm,
    m: MutatorId,
    cls: &JbbClasses,
    cfg: &PseudoJbb,
    assertions: bool,
) -> Result<World, VmError> {
    vm.push_frame(m)?;
    let company = vm.alloc_rooted(m, cls.company, 2, 2)?;

    let warehouses = vm.alloc(m, cls.array, cfg.warehouses, 0)?;
    vm.set_field(company, 0, warehouses)?;
    let customers_arr = vm.alloc(m, cls.array, cfg.customers, 0)?;
    vm.set_field(company, 1, customers_arr)?;

    let mut districts = Vec::new();
    let mut pending = Vec::new();
    for w in 0..cfg.warehouses {
        let wh = vm.alloc(m, cls.warehouse, 1, 4)?;
        vm.set_field(warehouses, w, wh)?;
        let darr = vm.alloc(m, cls.array, cfg.districts, 0)?;
        vm.set_field(wh, 0, darr)?;
        for d in 0..cfg.districts {
            let district = vm.alloc(m, cls.district, 1, 4)?;
            vm.set_field(darr, d, district)?;
            let table = HBTree::new(vm, m)?;
            vm.set_field(district, 0, table.handle())?;
            districts.push(table);
            pending.push(VecDeque::new());
        }
    }

    let mut customers = Vec::new();
    for c in 0..cfg.customers {
        let cust = vm.alloc(m, cls.customer, 1, 6)?;
        vm.set_field(customers_arr, c, cust)?;
        vm.set_data_word(cust, 0, c as u64)?;
        customers.push(cust);
    }

    if assertions {
        // The Company is a singleton: at most one live instance (§3.2.1
        // notes assert-instances would also have caught the drag).
        vm.assert_instances(cls.company, 1)?;
    }

    vm.pop_frame(m)?;
    Ok(World {
        company,
        customers,
        districts,
        pending,
        next_order_id: 1,
    })
}

/// NewOrder transaction: allocate an order with its lines, insert it into
/// the district's orderTable, and point the customer's `lastOrder` at it.
#[allow(clippy::too_many_arguments)]
fn new_order(
    vm: &mut Vm,
    m: MutatorId,
    cls: &JbbClasses,
    cfg: &PseudoJbb,
    world: &mut World,
    district: usize,
    customer: usize,
    assertions: bool,
) -> Result<(), VmError> {
    vm.push_frame(m)?;
    let order = vm.alloc_rooted(m, cls.order, 2, 4)?;
    let id = world.next_order_id;
    world.next_order_id += 1;
    vm.set_data_word(order, 0, id)?;

    let lines = vm.alloc(m, cls.array, cfg.orderlines, 0)?;
    vm.set_field(order, 1, lines)?;
    for l in 0..cfg.orderlines {
        let line = vm.alloc(m, cls.orderline, 0, 3)?;
        vm.set_field(lines, l, line)?;
    }

    let cust = world.customers[customer];
    vm.set_field(order, 0, cust)?;
    vm.set_field(cust, 0, order)?; // Customer.lastOrder — the leak source

    world.districts[district].insert(vm, m, id, order)?;
    world.pending[district].push_back(id);

    if assertions && cfg.style == JbbAssertions::Ownership {
        // "we instrumented District.addOrder() and asserted that each
        // Order added is owned by its orderTable."
        vm.assert_owned_by(world.districts[district].handle(), order)?;
    }

    // Order processing: price the lines and update the customer totals
    // (the benchmark's business logic — heap reads plus arithmetic).
    let mut acc: u64 = id;
    for k in 0..cfg.compute {
        let line = vm.field(lines, k % cfg.orderlines)?;
        let v = vm.data_word(line, k % 3)?;
        acc = std::hint::black_box(
            acc.wrapping_mul(6364136223846793005)
                .wrapping_add(v ^ k as u64),
        );
    }
    vm.set_data_word(order, 1, acc)?;
    vm.set_data_word(cust, 1, acc)?;

    vm.pop_frame(m)?;
    Ok(())
}

/// DeliveryTransaction: process the oldest pending orders of a district.
/// SPEC JBB2000's bug is that processed orders are *not* removed from the
/// orderTable; the destructor bug is that `Customer.lastOrder` is not
/// cleared.
fn delivery(
    vm: &mut Vm,
    _m: MutatorId,
    cfg: &PseudoJbb,
    world: &mut World,
    district: usize,
    assertions: bool,
) -> Result<(), VmError> {
    for _ in 0..cfg.delivery_batch {
        let Some(id) = world.pending[district].pop_front() else {
            break;
        };
        let table = &world.districts[district];
        let Some(order) = table.get(vm, id)? else {
            continue;
        };

        // "Process" the order, then destroy it (factory pattern).
        if cfg.bugs.fix_order_table {
            table.remove(vm, id)?;
        }
        if cfg.bugs.fix_customer_back_ref {
            let cust = vm.field(order, 0)?;
            if cust.is_some() && vm.field(cust, 0)? == order {
                vm.set_field(cust, 0, ObjRef::NULL)?;
            }
        }
        if assertions && cfg.style == JbbAssertions::Dead {
            // "we placed an assert-dead assertion for the Order object at
            // the end of DeliveryTransaction.process()."
            vm.assert_dead(order)?;
        }
    }
    Ok(())
}

impl Workload for PseudoJbb {
    fn name(&self) -> &str {
        "pseudojbb"
    }

    fn heap_budget(&self) -> usize {
        self.budget
    }

    fn run(&self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let cls = register_classes(vm);
        let m = vm.main();
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // The main loop's `oldCompany` local (§3.2.1): a root slot that —
        // unfixed — holds the destroyed company until it is overwritten by
        // the *next* generation's destruction.
        let old_company_slot = {
            let placeholder = build_world(vm, m, &cls, self, false)?;
            // Root slot for oldCompany; starts null via a fresh slot.
            let slot = vm.add_root(m, placeholder.company)?;
            vm.set_root(m, slot, ObjRef::NULL)?;
            // Tear the placeholder down; the real generations follow.
            let _ = placeholder;
            slot
        };

        let ndistricts = self.warehouses * self.districts;
        for generation in 0..self.company_generations.max(1) {
            let mut world = build_world(vm, m, &cls, self, assertions && generation == 0)?;
            vm.push_frame(m)?;
            vm.add_root(m, world.company)?;

            let txns = self.transactions / self.company_generations.max(1);
            for t in 0..txns {
                let district = rng.gen_range(0..ndistricts);
                let customer = rng.gen_range(0..self.customers);
                new_order(
                    vm, m, &cls, self, &mut world, district, customer, assertions,
                )?;
                if t % self.delivery_batch == self.delivery_batch - 1 {
                    delivery(vm, m, self, &mut world, district, assertions)?;
                }
            }

            // End-of-generation collection while the hierarchy is still
            // live (the real benchmark GCs between measurement
            // iterations), so assertions issued late in the run are
            // checked against the live world.
            vm.collect()?;

            // Destroy the company (factory pattern): the driver drops its
            // frame root, but the `oldCompany` local still references it.
            if assertions && self.style == JbbAssertions::Dead {
                vm.assert_dead(world.company)?;
            }
            vm.pop_frame(m)?;
            vm.set_root(m, old_company_slot, world.company)?;
            if self.bugs.fix_old_company_drag {
                vm.set_root(m, old_company_slot, ObjRef::NULL)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_once, ExpConfig};
    use gc_assertions::ViolationKind;

    fn small(mut jbb: PseudoJbb) -> PseudoJbb {
        jbb.transactions = 300;
        jbb.budget = 60_000;
        jbb
    }

    #[test]
    fn fixed_version_is_clean_under_ownership_asserts() {
        let jbb = small(PseudoJbb {
            bugs: JbbBugs::all_fixed(),
            style: JbbAssertions::Ownership,
            ..PseudoJbb::default()
        });
        let m = run_once(&jbb, ExpConfig::WithAssertions).unwrap();
        assert_eq!(m.violations, 0, "fixed pseudojbb must not fire");
        assert!(m.collections > 0);
    }

    #[test]
    fn fixed_version_is_clean_under_dead_asserts() {
        let jbb = small(PseudoJbb {
            bugs: JbbBugs::all_fixed(),
            style: JbbAssertions::Dead,
            ..PseudoJbb::default()
        });
        let m = run_once(&jbb, ExpConfig::WithAssertions).unwrap();
        assert_eq!(m.violations, 0);
    }

    #[test]
    fn customer_leak_found_by_dead_asserts() {
        let jbb = small(PseudoJbb {
            bugs: JbbBugs {
                fix_customer_back_ref: false,
                fix_order_table: true,
                fix_old_company_drag: true,
            },
            style: JbbAssertions::Dead,
            ..PseudoJbb::default()
        });
        let m = run_once(&jbb, ExpConfig::WithAssertions).unwrap();
        assert!(m.violations > 0, "Customer.lastOrder keeps orders alive");
    }

    #[test]
    fn order_table_leak_found_by_dead_asserts_with_figure1_path() {
        let jbb = small(PseudoJbb {
            bugs: JbbBugs {
                fix_customer_back_ref: true,
                fix_order_table: false,
                fix_old_company_drag: true,
            },
            style: JbbAssertions::Dead,
            ..PseudoJbb::default()
        });
        // Run manually to inspect the violation log.
        let mut vm = gc_assertions::Vm::new(
            gc_assertions::VmConfig::builder()
                .heap_budget(jbb.budget)
                .build(),
        );
        jbb.run(&mut vm, true).unwrap();
        vm.collect().unwrap();
        let log = vm.take_violation_log();
        assert!(!log.is_empty());
        let v = log
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::DeadReachable { .. }))
            .expect("a dead-reachable order");
        let text = v.render(vm.registry());
        // Figure 1's chain of types.
        for cls in [
            "Company",
            "Warehouse",
            "District",
            "longBTree",
            "longBTreeNode",
            "Order",
        ] {
            assert!(text.contains(cls), "missing {cls} in:\n{text}");
        }
    }

    #[test]
    fn both_leaks_found_by_ownership_asserts() {
        let jbb = small(PseudoJbb {
            bugs: JbbBugs::all_present(),
            style: JbbAssertions::Ownership,
            ..PseudoJbb::default()
        });
        let mut vm = gc_assertions::Vm::new(
            gc_assertions::VmConfig::builder()
                .heap_budget(jbb.budget)
                .build(),
        );
        jbb.run(&mut vm, true).unwrap();
        vm.collect().unwrap();
        let log = vm.take_violation_log();
        // With the orderTable leak present, orders stay in the table and
        // remain properly owned; the *customer* leak shows once orders are
        // delivered... but unremoved orders never leave the owner. So with
        // all bugs on, ownership asserts stay quiet — fix only the table
        // bug to expose the back-reference leak:
        let _ = log;
        let jbb2 = small(PseudoJbb {
            bugs: JbbBugs {
                fix_customer_back_ref: false,
                fix_order_table: true,
                fix_old_company_drag: true,
            },
            style: JbbAssertions::Ownership,
            ..PseudoJbb::default()
        });
        let mut vm2 = gc_assertions::Vm::new(
            gc_assertions::VmConfig::builder()
                .heap_budget(jbb2.budget)
                .build(),
        );
        jbb2.run(&mut vm2, true).unwrap();
        vm2.collect().unwrap();
        let log2 = vm2.take_violation_log();
        let not_owned = log2
            .iter()
            .filter(|v| matches!(v.kind, ViolationKind::NotOwned { .. }))
            .count();
        assert!(not_owned > 0, "lastOrder keeps delivered orders reachable");
        // The path identifies the Customer as the culprit.
        let v = log2
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::NotOwned { .. }))
            .unwrap();
        assert!(v.path.passes_through(vm2.registry(), "Customer"));
    }

    #[test]
    fn company_drag_found_by_instance_limit_and_dead() {
        let jbb = PseudoJbb {
            bugs: JbbBugs {
                fix_customer_back_ref: true,
                fix_order_table: true,
                fix_old_company_drag: false,
            },
            style: JbbAssertions::Dead,
            transactions: 400,
            company_generations: 4,
            budget: 120_000,
            ..PseudoJbb::default()
        };
        let mut vm = gc_assertions::Vm::new(
            gc_assertions::VmConfig::builder()
                .heap_budget(jbb.budget)
                .build(),
        );
        jbb.run(&mut vm, true).unwrap();
        vm.collect().unwrap();
        let log = vm.take_violation_log();
        let dead_companies = log
            .iter()
            .filter(|v| match &v.kind {
                ViolationKind::DeadReachable { class_name, .. } => class_name == "Company",
                _ => false,
            })
            .count();
        assert!(dead_companies > 0, "oldCompany drags destroyed companies");
    }

    #[test]
    fn drag_fix_passes() {
        let jbb = PseudoJbb {
            bugs: JbbBugs::all_fixed(),
            style: JbbAssertions::Dead,
            transactions: 400,
            company_generations: 4,
            budget: 120_000,
            ..PseudoJbb::default()
        };
        let m = run_once(&jbb, ExpConfig::WithAssertions).unwrap();
        assert_eq!(m.violations, 0);
    }

    #[test]
    fn base_and_infrastructure_run_clean() {
        let jbb = small(PseudoJbb::for_figures());
        for cfg in [ExpConfig::Base, ExpConfig::Infrastructure] {
            let m = run_once(&jbb, cfg).unwrap();
            assert_eq!(m.violations, 0);
            assert!(m.allocations > 1000);
        }
    }
}
