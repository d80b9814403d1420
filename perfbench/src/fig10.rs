//! The committed Figure 10 curves (`results/fig10/x5-2_<workload>.csv`):
//! the reference every sweep point and every advised placement is
//! checked against.

use std::path::Path;

/// One CSV row, its numbers kept as printed (6 decimals).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Canonical placement, as `CanonicalPlacement` displays it.
    pub placement: String,
    /// `measured_time`.
    pub measured: String,
    /// `predicted_time`.
    pub predicted: String,
}

/// Parses one curve CSV.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text.lines();
    if !lines
        .next()
        .is_some_and(|h| h.starts_with("index,placement,threads,measured_time,"))
    {
        return Err("missing fig10 CSV header".into());
    }
    lines
        .enumerate()
        .map(|(i, line)| {
            let bad = || format!("malformed fig10 row {i}: {line}");
            let (index, rest) = line.split_once(",\"").ok_or_else(bad)?;
            let (placement, rest) = rest.split_once("\",").ok_or_else(bad)?;
            let fields: Vec<&str> = rest.split(',').collect();
            if index != i.to_string() || fields.len() != 5 {
                return Err(bad());
            }
            Ok(Row {
                placement: placement.to_string(),
                measured: fields[1].to_string(),
                predicted: fields[2].to_string(),
            })
        })
        .collect()
}

/// Loads the x5-2 curve of `workload` from the repository root.
pub fn load(root: &Path, workload: &str) -> Result<Vec<Row>, String> {
    let path = root
        .join("results/fig10")
        .join(format!("x5-2_{workload}.csv"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A time as the CSVs print it.
pub fn printed(t: f64) -> String {
    format!("{t:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_quoted_placements_with_commas() {
        let text = "index,placement,threads,measured_time,predicted_time,normalized_measured,normalized_predicted\n\
                    0,\"[1]\",1,28.875642,28.677179,0.157454,0.150378\n\
                    1,\"[1,1 | 2]\",4,9.000000,8.500000,0.5,0.5\n";
        let rows = parse(text).unwrap();
        assert_eq!(rows[1].placement, "[1,1 | 2]");
        assert_eq!(
            (rows[0].measured.as_str(), rows[0].predicted.as_str()),
            ("28.875642", "28.677179")
        );
        assert!(parse("0,\"[1]\",1,2,3,4,5\n").is_err());
        assert!(parse(&text.replace("1,\"[1,1", "7,\"[1,1")).is_err());
    }
}
