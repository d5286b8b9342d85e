//! Commands, the line parser, and the `repeat`/`proc`/`call` block
//! recorder that the interpreter and the analyzer both drive.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::error::{ScriptError, ScriptErrorKind};

/// A reference-valued operand: a variable or the null literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A bound variable.
    Var(String),
    /// The `null` literal.
    Null,
}

/// One script command. See the crate docs for the surface syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Command {
    /// `config <key> <value>` — VM configuration; must precede execution.
    Config {
        /// Configuration key (`heap`, `grow`, `reaction`, `report-once`,
        /// `generational`, `strict-owner-lifetime`, `path-tracking`).
        key: String,
        /// Raw value token.
        value: String,
    },
    /// `class <Name> [field...]` — declare a class with named ref fields.
    Class {
        /// Class name.
        name: String,
        /// Reference-field names.
        fields: Vec<String>,
    },
    /// `new <var> <Class> [data_words]` — allocate and bind.
    New {
        /// Variable to bind.
        var: String,
        /// Declared class.
        class: String,
        /// Data payload words.
        data_words: usize,
    },
    /// `set <var>.<field> <target>` — write a reference field.
    Set {
        /// Receiver variable.
        var: String,
        /// Field name on the receiver's class.
        field: String,
        /// New value.
        value: Target,
    },
    /// `data <var> <index> <value>` — write a data word.
    Data {
        /// Receiver variable.
        var: String,
        /// Data-word index.
        index: usize,
        /// Value.
        value: u64,
    },
    /// `root <var>` — add to the current frame.
    Root(String),
    /// `frame` — push a root frame.
    Frame,
    /// `end-frame` — pop the top root frame.
    EndFrame,
    /// `global <var>` / `unglobal <var>`.
    Global(String),
    /// Remove a global root.
    Unglobal(String),
    /// `assert-dead <var>`.
    AssertDead(String),
    /// `assert-unshared <var>`.
    AssertUnshared(String),
    /// `assert-instances <Class> <limit>`.
    AssertInstances {
        /// Tracked class.
        class: String,
        /// Instance limit.
        limit: u32,
    },
    /// `assert-owned-by <owner> <ownee>`.
    AssertOwnedBy {
        /// Owner variable.
        owner: String,
        /// Ownee variable.
        ownee: String,
    },
    /// `release-ownee <var>`.
    ReleaseOwnee(String),
    /// `start-region`.
    StartRegion,
    /// `all-dead` — end the region, asserting everything allocated in it
    /// dead.
    AllDead,
    /// `gc` — run a (major) collection.
    Gc,
    /// `minor-gc` — run a minor collection (generational mode).
    MinorGc,
    /// `probe <var>` — print the path to the object, if reachable.
    Probe(String),
    /// `print` — print the last report and its violations.
    Print,
    /// `histogram` — print live objects aggregated by class.
    Histogram,
    /// `stats` — print heap/GC statistics.
    Stats,
    /// `expect-violations <n>` — violations in the last `gc` report.
    ExpectViolations(usize),
    /// `expect-total-violations <n>` — cumulative violations so far.
    ExpectTotalViolations(usize),
    /// `expect-live <var>` / `expect-dead <var>`.
    ExpectLive(String),
    /// Expect the object to have been reclaimed.
    ExpectDead(String),
    /// `expect-instances <Class> <n>` — live instances right now (by
    /// probe).
    ExpectInstances {
        /// Probed class.
        class: String,
        /// Expected live count.
        count: u32,
    },
    /// `repeat <n>` — execute the block up to the matching `end-repeat`
    /// exactly `n` times.
    Repeat(usize),
    /// `end-repeat` — close the innermost open `repeat` block.
    EndRepeat,
    /// `proc <name>` — begin recording a procedure body (not executed).
    Proc(String),
    /// `end-proc` — close the innermost open `proc` definition.
    EndProc,
    /// `call <name>` — execute a recorded procedure.  Recursion is
    /// allowed; a call at the configured `call-depth` bound is a no-op,
    /// so recursive procedures terminate deterministically.
    Call(String),
    /// `copy <dst> <src>` — bind `dst` to the object `src` refers to
    /// (variable aliasing; the only way a loop can chain a structure).
    Copy {
        /// Variable to (re)bind.
        dst: String,
        /// Existing binding to alias.
        src: String,
    },
}

fn err(line: usize, kind: ScriptErrorKind) -> ScriptError {
    ScriptError::new(line, kind)
}

fn bad(line: usize, msg: &str) -> ScriptError {
    err(line, ScriptErrorKind::BadArguments(msg.to_owned()))
}

/// 1-based column of the `n`-th whitespace-separated token of `line`,
/// counted in characters so the column matches what an editor shows.
pub(crate) fn token_column(line: &str, n: usize) -> Option<usize> {
    let mut tokens = 0usize;
    let mut in_token = false;
    for (i, ch) in line.chars().enumerate() {
        if ch.is_whitespace() {
            in_token = false;
        } else if !in_token {
            in_token = true;
            if tokens == n {
                return Some(i + 1);
            }
            tokens += 1;
        }
    }
    None
}

fn parse_target(tok: &str) -> Target {
    if tok == "null" {
        Target::Null
    } else {
        Target::Var(tok.to_owned())
    }
}

/// Parses one line into a command; returns `Ok(None)` for blank lines and
/// comments.
///
/// # Errors
///
/// [`ScriptErrorKind::UnknownCommand`] or
/// [`ScriptErrorKind::BadArguments`] with the given line number.
pub fn parse_line(line_no: usize, line: &str) -> Result<Option<Command>, ScriptError> {
    let line = match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    };
    let toks: Vec<&str> = line.split_whitespace().collect();
    let Some((&cmd, args)) = toks.split_first() else {
        return Ok(None);
    };
    // Any error that did not pin a more specific token points at the
    // command word, so every parse diagnostic carries a token + column.
    parse_tokens(line_no, line, cmd, args)
        .map(Some)
        .map_err(|e| {
            if e.token.is_none() {
                e.with_token(cmd, token_column(line, 0))
            } else {
                e
            }
        })
}

fn parse_tokens(
    line_no: usize,
    line: &str,
    cmd: &str,
    args: &[&str],
) -> Result<Command, ScriptError> {
    let command = match cmd {
        "config" => match args {
            [key, value] => Command::Config {
                key: (*key).to_owned(),
                value: (*value).to_owned(),
            },
            _ => return Err(bad(line_no, "config <key> <value>")),
        },
        "class" => match args.split_first() {
            Some((&name, fields)) => Command::Class {
                name: name.to_owned(),
                fields: fields.iter().map(|s| (*s).to_owned()).collect(),
            },
            None => return Err(bad(line_no, "class <Name> [field...]")),
        },
        "new" => match args {
            [var, class] => Command::New {
                var: (*var).to_owned(),
                class: (*class).to_owned(),
                data_words: 0,
            },
            [var, class, words] => Command::New {
                var: (*var).to_owned(),
                class: (*class).to_owned(),
                data_words: words.parse().map_err(|_| {
                    bad(line_no, "data words must be an integer")
                        .with_token(*words, token_column(line, 3))
                })?,
            },
            _ => return Err(bad(line_no, "new <var> <Class> [data_words]")),
        },
        "set" => match args {
            [lhs, value] => {
                let (var, field) = lhs
                    .split_once('.')
                    .ok_or_else(|| bad(line_no, "set <var>.<field> <value>"))?;
                Command::Set {
                    var: var.to_owned(),
                    field: field.to_owned(),
                    value: parse_target(value),
                }
            }
            _ => return Err(bad(line_no, "set <var>.<field> <value>")),
        },
        "data" => match args {
            [var, index, value] => Command::Data {
                var: (*var).to_owned(),
                index: index.parse().map_err(|_| {
                    bad(line_no, "index must be an integer")
                        .with_token(*index, token_column(line, 2))
                })?,
                value: value.parse().map_err(|_| {
                    bad(line_no, "value must be an integer")
                        .with_token(*value, token_column(line, 3))
                })?,
            },
            _ => return Err(bad(line_no, "data <var> <index> <value>")),
        },
        "root" => one_var(line_no, args, "root <var>", Command::Root)?,
        "frame" => no_args(line_no, args, "frame", Command::Frame)?,
        "end-frame" => no_args(line_no, args, "end-frame", Command::EndFrame)?,
        "global" => one_var(line_no, args, "global <var>", Command::Global)?,
        "unglobal" => one_var(line_no, args, "unglobal <var>", Command::Unglobal)?,
        "assert-dead" => one_var(line_no, args, "assert-dead <var>", Command::AssertDead)?,
        "assert-unshared" => one_var(
            line_no,
            args,
            "assert-unshared <var>",
            Command::AssertUnshared,
        )?,
        "assert-instances" => match args {
            [class, limit] => Command::AssertInstances {
                class: (*class).to_owned(),
                limit: limit.parse().map_err(|_| {
                    bad(line_no, "limit must be an integer")
                        .with_token(*limit, token_column(line, 2))
                })?,
            },
            _ => return Err(bad(line_no, "assert-instances <Class> <limit>")),
        },
        "assert-owned-by" => match args {
            [owner, ownee] => Command::AssertOwnedBy {
                owner: (*owner).to_owned(),
                ownee: (*ownee).to_owned(),
            },
            _ => return Err(bad(line_no, "assert-owned-by <owner> <ownee>")),
        },
        "release-ownee" => one_var(line_no, args, "release-ownee <var>", Command::ReleaseOwnee)?,
        "start-region" => no_args(line_no, args, "start-region", Command::StartRegion)?,
        "all-dead" => no_args(line_no, args, "all-dead", Command::AllDead)?,
        "gc" => no_args(line_no, args, "gc", Command::Gc)?,
        "minor-gc" => no_args(line_no, args, "minor-gc", Command::MinorGc)?,
        "probe" => one_var(line_no, args, "probe <var>", Command::Probe)?,
        "print" => no_args(line_no, args, "print", Command::Print)?,
        "histogram" => no_args(line_no, args, "histogram", Command::Histogram)?,
        "stats" => no_args(line_no, args, "stats", Command::Stats)?,
        "expect-violations" => match args {
            [n] => Command::ExpectViolations(n.parse().map_err(|_| {
                bad(line_no, "count must be an integer").with_token(*n, token_column(line, 1))
            })?),
            _ => return Err(bad(line_no, "expect-violations <n>")),
        },
        "expect-total-violations" => match args {
            [n] => Command::ExpectTotalViolations(n.parse().map_err(|_| {
                bad(line_no, "count must be an integer").with_token(*n, token_column(line, 1))
            })?),
            _ => return Err(bad(line_no, "expect-total-violations <n>")),
        },
        "repeat" => match args {
            [n] => Command::Repeat(n.parse().map_err(|_| {
                bad(line_no, "count must be an integer").with_token(*n, token_column(line, 1))
            })?),
            _ => return Err(bad(line_no, "repeat <n>")),
        },
        "end-repeat" => no_args(line_no, args, "end-repeat", Command::EndRepeat)?,
        "proc" => one_var(line_no, args, "proc <name>", Command::Proc)?,
        "end-proc" => no_args(line_no, args, "end-proc", Command::EndProc)?,
        "call" => one_var(line_no, args, "call <name>", Command::Call)?,
        "copy" => match args {
            [dst, src] => Command::Copy {
                dst: (*dst).to_owned(),
                src: (*src).to_owned(),
            },
            _ => return Err(bad(line_no, "copy <dst> <src>")),
        },
        "expect-live" => one_var(line_no, args, "expect-live <var>", Command::ExpectLive)?,
        "expect-dead" => one_var(line_no, args, "expect-dead <var>", Command::ExpectDead)?,
        "expect-instances" => match args {
            [class, count] => Command::ExpectInstances {
                class: (*class).to_owned(),
                count: count.parse().map_err(|_| {
                    bad(line_no, "count must be an integer")
                        .with_token(*count, token_column(line, 2))
                })?,
            },
            _ => return Err(bad(line_no, "expect-instances <Class> <n>")),
        },
        other => {
            return Err(err(
                line_no,
                ScriptErrorKind::UnknownCommand(other.to_owned()),
            ))
        }
    };
    Ok(command)
}

fn one_var(
    line_no: usize,
    args: &[&str],
    usage: &str,
    make: impl FnOnce(String) -> Command,
) -> Result<Command, ScriptError> {
    match args {
        [v] => Ok(make((*v).to_owned())),
        _ => Err(bad(line_no, usage)),
    }
}

fn no_args(
    line_no: usize,
    args: &[&str],
    usage: &str,
    cmd: Command,
) -> Result<Command, ScriptError> {
    if args.is_empty() {
        Ok(cmd)
    } else {
        Err(bad(line_no, usage))
    }
}

/// Parses a whole script into `(line_number, command)` pairs.
///
/// # Errors
///
/// The first parse error, tagged with its line.
pub fn parse_script(src: &str) -> Result<Vec<(usize, Command)>, ScriptError> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(cmd) = parse_line(i + 1, line)? {
            out.push((i + 1, cmd));
        }
    }
    Ok(out)
}

/// A recorded block body, shared by the proc table and every replay.
pub(crate) type Body = Rc<[(usize, Command)]>;

/// Which structured block an open [`Recording`] belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BlockKind {
    /// `repeat <n>` … `end-repeat`: replay the body `n` times on close.
    Repeat(usize),
    /// `proc <name>` … `end-proc`: store the body for later `call`s.
    Proc(String),
}

/// A block body being recorded.  While a recording is open, commands are
/// buffered instead of executed; the matching `end-repeat`/`end-proc`
/// closes it.  Nested blocks stay flat in the buffer — replay re-records
/// them naturally.
#[derive(Debug)]
struct Recording {
    kind: BlockKind,
    /// Line of the opening `repeat`/`proc`, for unclosed-block errors.
    line: usize,
    /// Openers nested inside the body: `true` for `repeat`, `false` for
    /// `proc`.  Used to match each `end-*` against the right opener.
    open: Vec<bool>,
    body: Vec<(usize, Command)>,
}

/// A block-structure error and the line it belongs to (the offending
/// command's, or the opener's for an unclosed block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockError {
    pub line: usize,
    fault: BlockFault,
}

/// `bool` fields: `true` for `end-repeat`, `false` for `end-proc`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BlockFault {
    /// A closer with no block open.
    Stray(bool),
    /// A closer of the wrong kind for the innermost open block.
    Crossed(bool),
    /// End of script with this block still open.
    Unclosed(BlockKind),
    /// `call` of a name no `proc` defined.
    UnknownProc(String),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = |repeat: bool| if repeat { "repeat" } else { "proc" };
        match &self.fault {
            BlockFault::Stray(r) => {
                write!(f, "`end-{0}` without an open `{0}`", word(*r))
            }
            BlockFault::Crossed(r) => write!(
                f,
                "`end-{0}` cannot close a `{1}` (use `end-{1}`)",
                word(*r),
                word(!*r)
            ),
            BlockFault::Unclosed(kind) => {
                let (opener, closer) = match kind {
                    BlockKind::Repeat(_) => ("repeat".to_owned(), "end-repeat"),
                    BlockKind::Proc(name) => (format!("proc {name}"), "end-proc"),
                };
                write!(f, "`{opener}` opened here is never closed by `{closer}`")
            }
            BlockFault::UnknownProc(name) => write!(
                f,
                "call of undefined proc `{name}` (define it with `proc {name}` first)"
            ),
        }
    }
}

/// What [`Blocks::feed`] decided about one command.
#[derive(Debug)]
pub(crate) enum Step {
    /// Buffered into the open recording, or it completed a `proc`
    /// definition: nothing runs now.
    Recorded,
    /// Not block structure: the caller runs the command (`call` included,
    /// through [`Blocks::enter_call`]).
    Run,
    /// The outermost `repeat` just closed: run `body` `count` times.
    Repeat { count: usize, body: Body },
}

/// Default `call` depth bound; override with `config call-depth <n>`.
const DEFAULT_CALL_LIMIT: usize = 16;

/// The streaming block recorder: the open recording, the proc table and
/// the `call` depth.  Fed one command at a time from a flat
/// [`parse_script`] stream, it is the single definition of the block
/// structure the interpreter executes and the analyzer predicts.
#[derive(Debug)]
pub(crate) struct Blocks {
    recording: Option<Recording>,
    procs: HashMap<String, Body>,
    /// Current dynamic `call` nesting depth.
    depth: usize,
    /// Depth bound: a `call` at this depth is a silent no-op, which is
    /// what makes unconditionally recursive procedures terminate.
    pub call_limit: usize,
}

impl Blocks {
    pub fn new() -> Blocks {
        Blocks {
            recording: None,
            procs: HashMap::new(),
            depth: 0,
            call_limit: DEFAULT_CALL_LIMIT,
        }
    }

    /// Whether a `repeat`/`proc` recording is open — commands fed now
    /// are buffered, not run.
    pub fn is_recording(&self) -> bool {
        self.recording.is_some()
    }

    /// Current dynamic `call` nesting depth.
    pub fn call_depth(&self) -> usize {
        self.depth
    }

    /// Classifies one command against the block structure so far.
    pub fn feed(&mut self, line: usize, cmd: &Command) -> Result<Step, BlockError> {
        let fault = |fault| Err(BlockError { line, fault });
        let Some(rec) = &mut self.recording else {
            let kind = match cmd {
                Command::Repeat(count) => BlockKind::Repeat(*count),
                Command::Proc(name) => BlockKind::Proc(name.clone()),
                Command::EndRepeat => return fault(BlockFault::Stray(true)),
                Command::EndProc => return fault(BlockFault::Stray(false)),
                _ => return Ok(Step::Run),
            };
            self.recording = Some(Recording {
                kind,
                line,
                open: Vec::new(),
                body: Vec::new(),
            });
            return Ok(Step::Recorded);
        };
        // A block is open: everything buffers, except the closer of the
        // outermost block.
        let closes_repeat = match cmd {
            Command::EndRepeat => Some(true),
            Command::EndProc => Some(false),
            _ => None,
        };
        if let Some(closes_repeat) = closes_repeat {
            let nested = rec.open.pop();
            let opener_is_repeat = nested.unwrap_or(matches!(rec.kind, BlockKind::Repeat(_)));
            if opener_is_repeat != closes_repeat {
                return fault(BlockFault::Crossed(closes_repeat));
            }
            if nested.is_none() {
                // Closes the outermost open block.
                let rec = self.recording.take().expect("recording is open");
                let body = Body::from(rec.body);
                return Ok(match rec.kind {
                    BlockKind::Repeat(count) => Step::Repeat { count, body },
                    BlockKind::Proc(name) => {
                        self.procs.insert(name, body);
                        Step::Recorded
                    }
                });
            }
        }
        match cmd {
            Command::Repeat(_) => rec.open.push(true),
            Command::Proc(_) => rec.open.push(false),
            _ => {}
        }
        rec.body.push((line, cmd.clone()));
        Ok(Step::Recorded)
    }

    /// Enters `call <name>`: `Some(body)` to run (then [`Blocks::exit_call`]),
    /// or `None` at the depth bound, where the call is a no-op.
    pub fn enter_call(&mut self, line: usize, name: &str) -> Result<Option<Body>, BlockError> {
        let Some(body) = self.procs.get(name) else {
            let fault = BlockFault::UnknownProc(name.to_owned());
            return Err(BlockError { line, fault });
        };
        if self.depth >= self.call_limit {
            return Ok(None);
        }
        self.depth += 1;
        Ok(Some(Rc::clone(body)))
    }

    /// Leaves the body entered by the matching [`Blocks::enter_call`].
    pub fn exit_call(&mut self) {
        self.depth -= 1;
    }

    /// End of script: an open block is an error at its opener's line.
    pub fn finish(&self) -> Result<(), BlockError> {
        match &self.recording {
            Some(rec) => Err(BlockError {
                line: rec.line,
                fault: BlockFault::Unclosed(rec.kind.clone()),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_blanks_skipped() {
        assert_eq!(parse_line(1, "").unwrap(), None);
        assert_eq!(parse_line(1, "   # just a comment").unwrap(), None);
        assert_eq!(
            parse_line(1, "gc # trailing comment").unwrap(),
            Some(Command::Gc)
        );
    }

    #[test]
    fn class_and_new() {
        assert_eq!(
            parse_line(1, "class Node next value").unwrap(),
            Some(Command::Class {
                name: "Node".into(),
                fields: vec!["next".into(), "value".into()]
            })
        );
        assert_eq!(
            parse_line(1, "new a Node 4").unwrap(),
            Some(Command::New {
                var: "a".into(),
                class: "Node".into(),
                data_words: 4
            })
        );
    }

    #[test]
    fn set_with_null_and_var() {
        assert_eq!(
            parse_line(1, "set a.next b").unwrap(),
            Some(Command::Set {
                var: "a".into(),
                field: "next".into(),
                value: Target::Var("b".into())
            })
        );
        assert_eq!(
            parse_line(1, "set a.next null").unwrap(),
            Some(Command::Set {
                var: "a".into(),
                field: "next".into(),
                value: Target::Null
            })
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_line(42, "frobnicate x").unwrap_err();
        assert_eq!(e.line, 42);
        assert!(matches!(e.kind, ScriptErrorKind::UnknownCommand(_)));

        let e = parse_line(7, "set a b").unwrap_err();
        assert_eq!(e.line, 7);
        assert!(matches!(e.kind, ScriptErrorKind::BadArguments(_)));

        let e = parse_line(3, "new a Node nope").unwrap_err();
        assert!(matches!(e.kind, ScriptErrorKind::BadArguments(_)));
    }

    #[test]
    fn errors_carry_tokens_and_columns() {
        // Unknown command: the command word itself, at its real column.
        let e = parse_line(42, "  frobnicate x").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("frobnicate"));
        assert_eq!(e.column, Some(3));
        assert!(e.to_string().starts_with("line 42:3: "));

        // Bad arity: falls back to the command word.
        let e = parse_line(7, "set a b").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("set"));
        assert_eq!(e.column, Some(1));

        // Bad integer: pins the offending operand, not the command.
        let e = parse_line(3, "new a Node nope").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("nope"));
        assert_eq!(e.column, Some(12));
    }

    #[test]
    fn whole_script_parses_with_line_numbers() {
        let script = "class T f\n\n# build\nnew a T\nroot a\ngc\n";
        let cmds = parse_script(script).unwrap();
        let lines: Vec<usize> = cmds.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![1, 4, 5, 6]);
    }

    #[test]
    fn all_assertion_commands_parse() {
        for (src, ok) in [
            ("assert-dead a", true),
            ("assert-unshared a", true),
            ("assert-instances T 3", true),
            ("assert-owned-by a b", true),
            ("release-ownee b", true),
            ("start-region", true),
            ("all-dead", true),
            ("assert-instances T", false),
            ("assert-owned-by a", false),
        ] {
            assert_eq!(parse_line(1, src).is_ok(), ok, "{src}");
        }
    }

    #[test]
    fn structured_commands_parse() {
        assert_eq!(parse_line(1, "repeat 8").unwrap(), Some(Command::Repeat(8)));
        assert_eq!(
            parse_line(1, "end-repeat").unwrap(),
            Some(Command::EndRepeat)
        );
        assert_eq!(
            parse_line(1, "proc grow").unwrap(),
            Some(Command::Proc("grow".into()))
        );
        assert_eq!(parse_line(1, "end-proc").unwrap(), Some(Command::EndProc));
        assert_eq!(
            parse_line(1, "call grow").unwrap(),
            Some(Command::Call("grow".into()))
        );
        assert_eq!(
            parse_line(1, "copy prev cell").unwrap(),
            Some(Command::Copy {
                dst: "prev".into(),
                src: "cell".into()
            })
        );
        assert!(parse_line(1, "repeat many").is_err());
        assert!(parse_line(1, "repeat").is_err());
        assert!(parse_line(1, "copy a").is_err());
        assert!(parse_line(1, "call").is_err());
    }

    #[test]
    fn expectations_parse() {
        assert_eq!(
            parse_line(1, "expect-violations 3").unwrap(),
            Some(Command::ExpectViolations(3))
        );
        assert_eq!(
            parse_line(1, "expect-instances Node 32").unwrap(),
            Some(Command::ExpectInstances {
                class: "Node".into(),
                count: 32
            })
        );
        assert!(parse_line(1, "expect-violations many").is_err());
    }
}
