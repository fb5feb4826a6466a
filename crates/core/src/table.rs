//! Transition tables: the one form every coherence controller takes.
//!
//! A controller is const lists of rows `(states, events) → (actions, next)`
//! with stable ids, indexed at compile time into dense `[[row; EVENTS];
//! STATES]` tables ([`transition_table!`]), plus one way to fire them:
//! classify the input into `(state, event)`, look the cell's row up, run
//! the row's actions in order, and in debug builds check the state the row
//! names. A cell with no row is the controller's one unexpected-event path.
//! Protocol variants and seeded mutations are tables too: each table is its
//! row lists in order, and an *override* list replaces cells the lists
//! before it fill, so no action knows which variant runs it. `dvs tables`
//! prints every table as Markdown ([`markdown`]) and one test checks them
//! all.
//!
//! The rows run compiled ([`dispatch_row!`]): each controller's
//! `run::<ID>` is monomorphized per row id over `Compiled::<ID>::ACTS`, the
//! row's actions as a compile-time constant, and its `act` is inlined into
//! each, so a row's actions become straight-line code and a fired row
//! costs one jump on its id instead of a dispatch per action.

use crate::config::Protocol;
use crate::proto::Action;

/// Declares a controller's tables over its `State`, `Event` and `Act`
/// enums, given their last variants: `Row`, the dense `Table`, and `Spec`,
/// one table with the protocols and mutation that run it. The controller's
/// module imports `Protocol` and `ProtocolMutation`.
macro_rules! transition_table {
    ($last_state:expr, $last_event:expr) => {
        const STATES: usize = $last_state as usize + 1;
        const EVENTS: usize = $last_event as usize + 1;

        /// One transition: in each state of `from`, each event of `on` runs
        /// `acts` and leaves the entry in `to` (`None`: a state the row does
        /// not fix — where it was, or what the datapath decides). Ids are
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

        /// Every row of `lists`, by id: the index [`Compiled`] reads. A
        /// row id outside `1..=`[`MAX_ROW_ID`](crate::table::MAX_ROW_ID),
        /// or two rows with one id, fails the build.
        const fn rows_by_id(
            lists: &[&'static [Row]],
        ) -> [Option<&'static Row>; crate::table::MAX_ROW_ID + 1] {
            let (mut by_id, mut l) = ([None; crate::table::MAX_ROW_ID + 1], 0);
            while l < lists.len() {
                let mut i = 0;
                while i < lists[l].len() {
                    let row = &lists[l][i];
                    let id = row.id as usize;
                    assert!(
                        id >= 1 && id <= crate::table::MAX_ROW_ID,
                        "row id outside 1..=MAX_ROW_ID"
                    );
                    assert!(by_id[id].is_none(), "two rows with one id");
                    by_id[id] = Some(row);
                    i += 1;
                }
                l += 1;
            }
            by_id
        }

        /// Row `ID`'s actions as a compile-time constant (none for an id no
        /// row takes), read from the controller's `BY_ID` index of its row
        /// lists.
        struct Compiled<const ID: usize>;

        impl<const ID: usize> Compiled<ID> {
            const ACTS: &'static [Act] = match BY_ID[ID] {
                Some(row) => row.acts,
                None => &[],
            };
        }

        /// A labelled row list; an override (`true`) replaces cells the
        /// lists before it fill.
        type List = (&'static str, &'static [Row], bool);

        /// One table: the protocols that run it, the seeded mutation it
        /// arms (whose list carries the mutation's token), and its lists.
        struct Spec {
            protocols: &'static [Protocol],
            mutation: Option<ProtocolMutation>,
            lists: &'static [List],
            table: Table,
        }

        impl Spec {
            /// Indexes `lists` in order; a row landing in a filled cell, or
            /// an override in an empty one, fails the build.
            const fn new(
                protocols: &'static [Protocol],
                mutation: Option<ProtocolMutation>,
                lists: &'static [List],
            ) -> Spec {
                let (mut table, mut l) = ([[None; EVENTS]; STATES], 0);
                while l < lists.len() {
                    let (_, rows, over) = lists[l];
                    let mut i = 0;
                    while i < rows.len() {
                        let (row, mut j) = (&rows[i], 0);
                        while j < row.from.len() * row.on.len() {
                            let (s, e) = (row.from[j / row.on.len()], row.on[j % row.on.len()]);
                            let cell = &mut table[s as usize][e as usize];
                            assert!(cell.is_some() == over, "table cell collision");
                            *cell = Some(row);
                            j += 1;
                        }
                        i += 1;
                    }
                    l += 1;
                }
                Spec {
                    protocols,
                    mutation,
                    lists,
                    table,
                }
            }

            /// The table of `specs` that `protocol` runs armed with
            /// `mutation` — its stock table if none arms it.
            fn find(
                specs: &'static [Spec],
                protocol: Protocol,
                mutation: Option<ProtocolMutation>,
            ) -> Option<&'static Spec> {
                let runs = |m| {
                    specs
                        .iter()
                        .find(|s| s.protocols.contains(&protocol) && s.mutation == m)
                };
                runs(mutation).or_else(|| runs(None))
            }

            /// Appends the tables of `specs` that `protocol` runs to `out`:
            /// every row of the stock table, marked by its list, then each
            /// mutation's rows.
            fn markdown(specs: &'static [Spec], name: &str, protocol: Protocol, out: &mut String) {
                use crate::table::join;
                use std::fmt::Write as _;
                let Some(stock) = Self::find(specs, protocol, None) else {
                    return;
                };
                let _ = write!(out, "#### {name} ({})\n\n", protocol.label());
                out.push_str("| row | states | events | actions | next | source |\n");
                out.push_str("|---:|---|---|---|---|---|\n");
                let lists = stock
                    .lists
                    .iter()
                    .map(|&(label, rows, _)| (label.to_owned(), rows));
                let armed = specs.iter().filter(|s| s.protocols.contains(&protocol));
                let mutated = armed.filter_map(|s| {
                    let token = s.mutation?.token();
                    let rows = s.lists.iter().find(|l| l.0 == token)?.1;
                    Some((format!("mutation `{token}`"), rows))
                });
                for (source, rows) in lists.chain(mutated) {
                    for r in rows {
                        let from = match r.from.len() == STATES {
                            true => "any".to_owned(),
                            false => join(r.from),
                        };
                        let (id, on, acts) = (r.id, join(r.on), join(r.acts));
                        let to = r.to.map_or("—".to_owned(), |s| format!("{s:?}"));
                        let _ =
                            writeln!(out, "| {id} | {from} | {on} | {acts} | {to} | {source} |");
                    }
                }
                out.push('\n');
            }
        }
    };
}

/// The highest row id any controller may use: [`dispatch_row!`] has one
/// arm per id up to it.
pub(crate) const MAX_ROW_ID: usize = 40;

/// Runs a fired row compiled: `dispatch_row!(row.id, ctl.run(args...))`
/// calls `ctl.run::<ID>(args...)` for the row's id, one arm per id up to
/// [`MAX_ROW_ID`], so each row's actions run from their own
/// monomorphized, straight-line copy of the controller's steps.
macro_rules! dispatch_row {
    ($id:expr, $ctl:ident.$run:ident($($arg:expr),* $(,)?)) => {
        dispatch_row!(@ids $id, $ctl, $run, ($($arg),*);
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20
            21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40)
    };
    (@ids $id:expr, $ctl:ident, $run:ident, $args:tt; $($n:literal)*) => {{
        const _: () = assert!([$($n),*].len() == crate::table::MAX_ROW_ID);
        match $id as usize {
            $($n => dispatch_row!(@call $ctl, $run, $n, $args),)*
            id => unreachable!("row id {id} beyond MAX_ROW_ID"),
        }
    }};
    (@call $ctl:ident, $run:ident, $n:literal, ($($arg:expr),*)) => {
        $ctl.$run::<$n>($($arg),*)
    };
}

/// The one unexpected-event path's report: a violation naming the
/// controller, the line or word, its state, and the event — or the input,
/// when no event classifies it. Out of line, so the interpreters' hot path
/// carries none of the formatting.
#[cold]
#[inline(never)]
pub(crate) fn unexpected(
    who: std::fmt::Arguments,
    at: impl std::fmt::Display,
    state: impl std::fmt::Debug,
    event: Option<impl std::fmt::Debug>,
    input: impl std::fmt::Debug,
) -> Action {
    let what = event.map_or(format!("{input:?}"), |e| format!("{e:?}"));
    Action::violation(format!("{who}: unexpected {what} for {at} in {state:?}"))
}

/// `xs` by name, comma-separated ("—" when there are none).
pub(crate) fn join<T: std::fmt::Debug>(xs: &[T]) -> String {
    let names: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    if names.is_empty() {
        return "—".to_owned();
    }
    names.join(", ")
}

/// `protocol`'s controller tables as Markdown, one section per controller:
/// every row of the table it runs, marked by the list it comes from, then
/// each seeded mutation's replacement rows.
pub fn markdown(protocol: Protocol) -> String {
    let mut out = String::new();
    crate::mesi::l1::markdown(protocol, &mut out);
    crate::mesi::dir::markdown(protocol, &mut out);
    crate::denovo::l1::markdown(protocol, &mut out);
    crate::denovo::registry::markdown(protocol, &mut out);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ProtocolMutation;
    use std::collections::HashSet;

    /// A row by index: id, states, events, next state.
    pub(crate) struct RowView {
        pub id: u16,
        pub from: Vec<usize>,
        pub on: Vec<usize>,
        pub to: Option<usize>,
    }

    /// `cells[state][event]`: the id of the row in that cell.
    pub(crate) type Cells = Vec<Vec<Option<u16>>>;

    /// One table: its protocols, mutation, list labels in order, and cells.
    pub(crate) type TableView = (
        &'static [Protocol],
        Option<ProtocolMutation>,
        Vec<&'static str>,
        Cells,
    );

    /// A controller's row lists and tables.
    pub(crate) struct View {
        pub name: &'static str,
        pub lists: Vec<(&'static str, Vec<RowView>)>,
        pub tables: Vec<TableView>,
        /// Events only GCS takes: no DS0 or DS table has rows there.
        pub gcs_only: Vec<usize>,
    }

    /// One built table as a controller declares it: its protocols, its
    /// mutation, its lists, and its cells.
    type Built<R, const S: usize, const E: usize> = (
        &'static [Protocol],
        Option<ProtocolMutation>,
        &'static [(&'static str, &'static [R], bool)],
        &'static [[Option<&'static R>; E]; S],
    );

    impl View {
        /// A controller's view: its tables, read through `index`, which
        /// gives a row's id, states, events and next state by index.
        pub(crate) fn new<R: 'static, const S: usize, const E: usize>(
            name: &'static str,
            tables: impl Iterator<Item = Built<R, S, E>>,
            index: impl Fn(&R) -> RowView,
            gcs_only: Vec<usize>,
        ) -> View {
            let mut view = View {
                name,
                lists: Vec::new(),
                tables: Vec::new(),
                gcs_only,
            };
            for (protocols, mutation, lists, cells) in tables {
                for &(label, rows, _) in lists {
                    if view.lists.iter().all(|l| l.0 != label) {
                        view.lists.push((label, rows.iter().map(&index).collect()));
                    }
                }
                let labels = lists.iter().map(|l| l.0).collect();
                let ids =
                    |row: &[Option<&R>; E]| row.iter().map(|c| c.map(|r| index(r).id)).collect();
                view.tables
                    .push((protocols, mutation, labels, cells.iter().map(ids).collect()));
            }
            view
        }
    }

    /// Every controller's tables. Ids are unique across a controller's
    /// lists; no list puts two rows in one cell; every `next` state has
    /// rows of its own; each mutation table differs from its stock table
    /// exactly in the cells its own rows fill, and every one of those rows
    /// is live; and the GCS-only events have no rows in any DS0 or DS
    /// table. (An override landing in a cell no earlier list fills, or two
    /// base rows in one cell, already fails the build.)
    #[test]
    fn transition_tables_are_well_formed() {
        let views = [
            crate::mesi::l1::tests::view(),
            crate::mesi::dir::tests::view(),
            crate::denovo::l1::tests::view(),
            crate::denovo::registry::tests::view(),
        ];
        for View {
            name,
            lists,
            tables,
            gcs_only,
        } in views
        {
            let rows = |label: &str| &lists.iter().find(|l| l.0 == label).expect("a list").1;
            let mut ids: Vec<u16> = lists
                .iter()
                .flat_map(|l| l.1.iter().map(|r| r.id))
                .collect();
            let count = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), count, "{name}: row ids are unique");
            for (label, list) in &lists {
                let mut cells = HashSet::new();
                for r in list {
                    for (s, e) in r.from.iter().flat_map(|s| r.on.iter().map(move |e| (s, e))) {
                        assert!(
                            cells.insert((s, e)),
                            "{name} {label}: two rows in cell {s},{e}"
                        );
                    }
                }
            }
            for (protocols, mutation, labels, cells) in &tables {
                let all = || labels.iter().flat_map(|l| rows(l));
                let froms: HashSet<usize> = all().flat_map(|r| r.from.iter().copied()).collect();
                for r in all() {
                    let known = r.to.is_none_or(|to| froms.contains(&to));
                    assert!(known, "{name}: row {} leads to a state with no rows", r.id);
                }
                let plain = [Protocol::DeNovoSync0, Protocol::DeNovoSync];
                if protocols.iter().any(|p| plain.contains(p)) {
                    for &e in &gcs_only {
                        let held: Vec<_> = cells.iter().filter_map(|row| row[e]).collect();
                        assert!(
                            held.is_empty(),
                            "{name}: rows {held:?} for a GCS-only event"
                        );
                    }
                }
                let Some(m) = mutation else {
                    continue;
                };
                let stock = tables.iter().find(|t| t.0 == *protocols && t.1.is_none());
                let stock = &stock.expect("a stock table").3;
                let own: HashSet<u16> = rows(m.token()).iter().map(|r| r.id).collect();
                let mut live = HashSet::new();
                for (s, row) in cells.iter().enumerate() {
                    for (e, &id) in row.iter().enumerate() {
                        let mine = id.is_some_and(|i| own.contains(&i));
                        let changed = id != stock[s][e];
                        assert_eq!(changed, mine, "{name} under {m:?}: cell {s},{e}");
                        live.extend(id.filter(|_| mine));
                    }
                }
                assert_eq!(live, own, "{name} under {m:?}: every mutation row is live");
            }
        }
    }

    #[test]
    fn markdown_covers_each_protocols_controllers() {
        let ds = markdown(Protocol::DeNovoSync);
        assert!(ds.contains("#### DeNovo L1 (DS)") && ds.contains("#### DeNovo registry (DS)"));
        assert!(!ds.contains("MESI"), "{ds}");
        assert!(ds.contains("| DS override |"), "{ds}");
        let m = markdown(Protocol::Mesi);
        assert!(m.contains("mutation `mesi-drop-ack`"), "{m}");
    }
}
