//! `config <key> <value>`: the one table of keys, value spellings and
//! cross-key rules, applied to a real [`VmConfig`] by the interpreter
//! (which then builds its VM from it) and the analyzer (which predicts
//! from it) alike.

use std::fmt;

use gc_assertions::{CollectorKind, MinorStrategy, Mode, Reaction, VmConfig};

/// Why a `config` line was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConfigError {
    /// No such key.
    UnknownKey,
    /// The value does not parse; carries the accepted form.
    BadValue(&'static str),
    /// The value is well-formed but contradicts an earlier setting.
    Conflict(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownKey => f.write_str("unknown config key"),
            ConfigError::BadValue(usage) => write!(f, "expected `config {usage}`"),
            ConfigError::Conflict(why) => f.write_str(why),
        }
    }
}

fn parse_bool(value: &str, usage: &'static str) -> Result<bool, ConfigError> {
    match value {
        "on" | "true" | "yes" => Ok(true),
        "off" | "false" | "no" => Ok(false),
        _ => Err(ConfigError::BadValue(usage)),
    }
}

fn parse_count(value: &str, usage: &'static str) -> Result<usize, ConfigError> {
    value.parse().map_err(|_| ConfigError::BadValue(usage))
}

/// Applies one `config` line to `cfg` — or to `call_limit` for the
/// script-level `call-depth` key.  On error nothing is changed.
pub(crate) fn apply_config(
    cfg: &mut VmConfig,
    call_limit: &mut usize,
    key: &str,
    value: &str,
) -> Result<(), ConfigError> {
    let mut next = cfg.clone();
    match key {
        "heap" => next.heap_budget = parse_count(value, "heap <words>")?,
        "grow" => next.grow = parse_bool(value, "grow on|off")?,
        "report-once" => next.report_once = parse_bool(value, "report-once on|off")?,
        "path-tracking" => next.path_tracking = parse_bool(value, "path-tracking on|off")?,
        "strict-owner-lifetime" => {
            next.strict_owner_lifetime = parse_bool(value, "strict-owner-lifetime on|off")?;
        }
        "generational" => next = next.generational(parse_count(value, "generational <n>")?),
        "gc-threads" => next.gc_threads = parse_count(value, "gc-threads <workers>")?,
        "call-depth" => *call_limit = parse_count(value, "call-depth <n>")?,
        "collector" => {
            next.collector = match value {
                "mark-sweep" | "marksweep" => CollectorKind::MarkSweep,
                "copying" => CollectorKind::Copying,
                _ => return Err(ConfigError::BadValue("collector mark-sweep|copying")),
            }
        }
        "minor-strategy" => {
            next.minor_strategy = match value {
                "cards" => MinorStrategy::Cards,
                "remembered-set" => MinorStrategy::RememberedSet,
                _ => return Err(ConfigError::BadValue("minor-strategy cards|remembered-set")),
            }
        }
        "reaction" => {
            next.reaction = match value {
                "log" => Reaction::Log,
                "halt" => Reaction::Halt,
                "force-true" => Reaction::ForceTrue,
                _ => return Err(ConfigError::BadValue("reaction log|halt|force-true")),
            }
        }
        "mode" => {
            next.mode = match value {
                "base" => Mode::Base,
                "instrumented" => Mode::Instrumented,
                _ => return Err(ConfigError::BadValue("mode base|instrumented")),
            }
        }
        _ => return Err(ConfigError::UnknownKey),
    }
    // The rules `Vm::new` would panic on, rejected in whichever order
    // the keys arrive.
    next.validate().map_err(ConfigError::Conflict)?;
    *cfg = next;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(lines: &[(&str, &str)]) -> Result<(VmConfig, usize), ConfigError> {
        let (mut cfg, mut limit) = (VmConfig::default(), 16);
        for (k, v) in lines {
            apply_config(&mut cfg, &mut limit, k, v)?;
        }
        Ok((cfg, limit))
    }

    #[test]
    fn keys_land_on_the_real_vm_config() {
        let (cfg, limit) = apply(&[
            ("heap", "128"),
            ("grow", "off"),
            ("generational", "0"),
            ("minor-strategy", "remembered-set"),
            ("reaction", "force-true"),
            ("mode", "base"),
            ("call-depth", "3"),
        ])
        .unwrap();
        assert_eq!((cfg.heap_budget, cfg.grow, limit), (128, false, 3));
        // The setter's clamp applies to scripts too.
        assert_eq!(cfg.generational, Some(1));
        assert_eq!(cfg.minor_strategy, MinorStrategy::RememberedSet);
        assert_eq!((cfg.reaction, cfg.mode), (Reaction::ForceTrue, Mode::Base));
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert_eq!(apply(&[("hep", "1")]).unwrap_err(), ConfigError::UnknownKey);
        let e = apply(&[("grow", "maybe")]).unwrap_err();
        assert_eq!(e.to_string(), "expected `config grow on|off`");
    }

    #[test]
    fn copying_conflicts_are_rejected_in_either_order() {
        for lines in [
            [("collector", "copying"), ("generational", "4")],
            [("generational", "4"), ("collector", "copying")],
            [("collector", "copying"), ("gc-threads", "2")],
            [("gc-threads", "2"), ("collector", "copying")],
        ] {
            assert!(
                matches!(apply(&lines), Err(ConfigError::Conflict(_))),
                "{lines:?}"
            );
        }
        assert!(apply(&[("collector", "copying"), ("gc-threads", "0")]).is_ok());
    }

    #[test]
    fn zero_heap_is_rejected_like_the_builder_rejects_it() {
        let e = apply(&[("heap", "0")]).unwrap_err();
        assert_eq!(e, ConfigError::Conflict("heap budget must be non-zero"));
        assert_eq!(e.to_string(), "heap budget must be non-zero");
        // On error nothing is changed.
        let (mut cfg, mut limit) = (VmConfig::default(), 16);
        assert!(apply_config(&mut cfg, &mut limit, "heap", "0").is_err());
        assert_eq!(cfg.heap_budget, VmConfig::default().heap_budget);
    }
}
