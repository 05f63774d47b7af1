//! The committed Figure 5 table (`results_fig5_tables.txt`) as the expected
//! output of every `fig5_*` pass.

use std::collections::BTreeMap;

/// Path of the committed tables, relative to the repository root.
pub const GOLDEN_PATH: &str = "results_fig5_tables.txt";

/// Expected text row of Figure 5 for each write size in KB.
pub type GoldenRows = BTreeMap<usize, String>;

/// Parse the text rows of the `===== fig5 =====` section: every line of the
/// form `<size_KB> | ...`, keyed by size, with trailing blanks removed.
/// Other sections (fig6, tables) and the CSV block are ignored.
pub fn parse(text: &str) -> Result<GoldenRows, String> {
    let mut rows = GoldenRows::new();
    let mut in_fig5 = false;
    for line in text.lines() {
        if let Some(section) = line
            .strip_prefix("===== ")
            .and_then(|l| l.strip_suffix(" ====="))
        {
            in_fig5 = section == "fig5";
            continue;
        }
        if !in_fig5 {
            continue;
        }
        let Some((size, _)) = line.split_once(" | ") else {
            continue;
        };
        let Ok(kb) = size.trim().parse::<usize>() else {
            continue;
        };
        if rows.insert(kb, line.trim_end().to_string()).is_some() {
            return Err(format!("{GOLDEN_PATH}: fig5 row {kb} KB appears twice"));
        }
    }
    if rows.is_empty() {
        return Err(format!("{GOLDEN_PATH}: no fig5 rows found"));
    }
    Ok(rows)
}

/// One computed Figure 5 row, in the exact text layout `fig5` prints.
pub struct Row {
    /// Write size, bytes.
    pub size: usize,
    /// Unmodified stack: throughput, sender utilization, sender and
    /// receiver efficiency.
    pub un: [f64; 4],
    /// Single-copy stack, same fields.
    pub sc: [f64; 4],
    /// Raw HIPPI bound, Mbit/s.
    pub raw_mbps: f64,
}

impl Row {
    /// The row as `fig5` renders it.
    pub fn render(&self) -> String {
        let (un, sc) = (&self.un, &self.sc);
        format!(
            "{:>8} | {:>9.1} {:>9.1} {:>9.1} | {:>8.2} {:>8.2} | {:>9.0} {:>9.0} | {:>9.0} {:>9.0}",
            self.size / 1024,
            un[0],
            sc[0],
            self.raw_mbps,
            un[1],
            sc[1],
            un[2],
            sc[2],
            un[3],
            sc[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
===== fig5 =====
== Figure 5: Alpha 3000/400 ==

 size_KB |   un_Mbps   sc_Mbps  raw_Mbps |  un_util  sc_util |    un_eff    sc_eff | un_eff_rx sc_eff_rx
       1 |      66.1      16.5      64.6 |     1.00     0.93 |        66        18 |        66        17
     512 |     144.1     142.9     143.3 |     0.81     0.29 |       177       488 |       177       456

-- CSV --
1,66.1,16.5,64.6,1.000,0.926,66,18

===== fig6 =====
       1 |      50.0      10.0      40.0 |     1.00     0.90 |        50        11 |        50        10
===== table2 =====
      Pin |      35.0 +  29.0 * n |      35.0 +  29.0 * n | 1.0000
";

    #[test]
    fn parses_only_the_fig5_text_rows() {
        let rows = parse(SAMPLE).unwrap();
        assert_eq!(rows.keys().copied().collect::<Vec<_>>(), vec![1, 512]);
        assert!(rows[&1].starts_with("       1 |      66.1"));
        assert!(rows[&512].ends_with("456"));
    }

    #[test]
    fn rendered_row_matches_the_committed_layout() {
        let row = Row {
            size: 1024,
            un: [66.1, 1.0, 66.2, 66.0],
            sc: [16.5, 0.926, 17.8, 17.1],
            raw_mbps: 64.6,
        };
        assert_eq!(row.render(), parse(SAMPLE).unwrap()[&1]);
    }

    #[test]
    fn rejects_tables_without_fig5_rows_or_with_duplicates() {
        assert!(parse("===== fig6 =====\n 1 | x\n").is_err());
        let dup = "===== fig5 =====\n 1 | a\n 1 | b\n";
        assert!(parse(dup).is_err());
    }

    #[test]
    fn committed_table_has_all_twenty_points() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results_fig5_tables.txt"
        ))
        .unwrap();
        let rows = parse(&text).unwrap();
        let sizes: Vec<usize> = (0..10).map(|i| 1 << i).collect();
        assert_eq!(rows.keys().copied().collect::<Vec<_>>(), sizes);
    }
}
