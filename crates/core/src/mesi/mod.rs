//! The MESI baseline: a directory protocol with writer-initiated
//! invalidations, the comparison point of the paper's evaluation — "the GEMS
//! implementation of the MESI protocol, modified to support non-blocking
//! writes for a fair comparison with DeNovo". The invalidation/ack traffic
//! and the directory's sharer-list storage are precisely the overheads
//! DeNovoSync eliminates.
//!
//! Both controllers, [`l1`] and [`dir`], are the Sorin et al. primer's
//! transition tables. Each classifies an input into an event against the
//! line's state (derived from what it stores, never stored itself) and runs
//! the const row at `(state, event)`: the actions, and the state they reach.
//! A cell with no row is a protocol violation; a seeded mutation swaps rows.
//! `family` holds the whole-machine invariant checks.

/// Declares a controller's table over its `State`, `Event` and `Act` enums,
/// given their last variants: `Row`, the dense `Table` lookup, and `index`,
/// which builds a table at compile time.
macro_rules! transition_table {
    ($last_state:expr, $last_event:expr) => {
        const STATES: usize = $last_state as usize + 1;
        const EVENTS: usize = $last_event as usize + 1;

        /// One transition: in each state of `from`, each event of `on` runs
        /// `acts` and leaves the line in `to` (`None`: where it was). Ids are
        /// stable; new rows take new ids.
        #[derive(Debug)]
        struct Row {
            id: u16,
            from: &'static [State],
            on: &'static [Event],
            acts: &'static [Act],
            to: Option<State>,
        }

        type Table = [[Option<&'static Row>; EVENTS]; STATES];

        /// Indexes `rows`, then lets `overrides` replace the cells they name.
        const fn index(rows: &'static [Row], overrides: &'static [Row]) -> Table {
            fill(fill([[None; EVENTS]; STATES], rows, false), overrides, true)
        }

        /// Puts each row in its cells; a row landing in a filled cell, or an
        /// override in an empty one, fails the build.
        const fn fill(mut cells: Table, rows: &'static [Row], over: bool) -> Table {
            let mut i = 0;
            while i < rows.len() {
                let (row, mut j) = (&rows[i], 0);
                while j < row.from.len() * row.on.len() {
                    let (s, e) = (row.from[j / row.on.len()], row.on[j % row.on.len()]);
                    let cell = &mut cells[s as usize][e as usize];
                    assert!(cell.is_some() == over, "table cell collision");
                    *cell = Some(row);
                    j += 1;
                }
                i += 1;
            }
            cells
        }
    };
}

pub mod dir;
pub(crate) mod family;
pub mod l1;

pub use dir::MesiDir;
pub use l1::MesiL1;
