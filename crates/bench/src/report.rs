//! The one table type the harness reports render through, and small
//! formatting helpers.
//!
//! A [`Table`] is written once per report and projected two ways: the
//! aligned text table `figures` prints, and the CSV file `figures --csv`
//! writes. Each column names its header in either view or in both.

/// One cell of a [`Table`].
#[derive(Clone, Debug)]
pub enum Cell {
    /// The same text in both views.
    Text(String),
    /// A ratio: 2 decimals in the text view, 4 in CSV.
    Ratio(f64),
}

impl Cell {
    /// A text cell from anything printable.
    pub fn text(x: impl ToString) -> Cell {
        Cell::Text(x.to_string())
    }

    fn in_text(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Ratio(x) => f2(*x),
        }
    }

    fn in_csv(&self) -> String {
        match self {
            Cell::Text(s) => field(s),
            Cell::Ratio(x) => format!("{x:.4}"),
        }
    }
}

/// A column's header in each view; `None` leaves it out of that view.
#[derive(Clone, Debug)]
struct Column {
    text: Option<String>,
    csv: Option<String>,
}

/// A report table: a title, columns, rows of cells, text-only summary rows
/// and a text footer.
///
/// The text view is the title line, the aligned table of the text columns
/// (rows, then summary rows), then the footer; a table with an empty title
/// has no text view. The CSV view is the header and rows of the CSV
/// columns; a table with no CSV column has no CSV view.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    summary: Vec<Vec<Cell>>,
    footer: String,
}

impl Table {
    /// An empty table with `title` (empty for a CSV-only table).
    pub fn new(title: impl Into<String>) -> Table {
        Table { title: title.into(), ..Table::default() }
    }

    /// Adds a column shown in both views.
    pub fn column(&mut self, text: impl Into<String>, csv: impl Into<String>) -> &mut Table {
        self.columns.push(Column { text: Some(text.into()), csv: Some(csv.into()) });
        self
    }

    /// Adds a column shown only in the text view.
    pub fn text_column(&mut self, text: impl Into<String>) -> &mut Table {
        self.columns.push(Column { text: Some(text.into()), csv: None });
        self
    }

    /// Adds a column shown only in the CSV view.
    pub fn csv_column(&mut self, csv: impl Into<String>) -> &mut Table {
        self.columns.push(Column { text: None, csv: Some(csv.into()) });
        self
    }

    /// Appends a row, one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Table {
        assert_eq!(cells.len(), self.columns.len(), "one cell per column");
        self.rows.push(cells);
        self
    }

    /// Appends a row shown only in the text view, after every [`row`](Table::row).
    pub fn summary_row(&mut self, cells: Vec<Cell>) -> &mut Table {
        assert_eq!(cells.len(), self.columns.len(), "one cell per column");
        self.summary.push(cells);
        self
    }

    /// Sets the text printed after the table (each line ends in `\n`).
    pub fn footer(&mut self, footer: impl Into<String>) -> &mut Table {
        self.footer = footer.into();
        self
    }

    /// The text view, if the table has a title.
    pub fn text(&self) -> Option<String> {
        if self.title.is_empty() {
            return None;
        }
        let cols: Vec<usize> =
            (0..self.columns.len()).filter(|&i| self.columns[i].text.is_some()).collect();
        let mut out = format!("{}\n", self.title);
        if !cols.is_empty() {
            let header: Vec<String> =
                cols.iter().filter_map(|&i| self.columns[i].text.clone()).collect();
            let rows: Vec<Vec<String>> = self
                .rows
                .iter()
                .chain(&self.summary)
                .map(|row| cols.iter().map(|&i| row[i].in_text()).collect())
                .collect();
            let mut widths: Vec<usize> = header.iter().map(String::len).collect();
            for row in &rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let line = |cells: &[String]| {
                let mut line = String::from("|");
                for (cell, w) in cells.iter().zip(&widths) {
                    line.push_str(&format!(" {cell:<w$} |"));
                }
                line + "\n"
            };
            out.push_str(&line(&header));
            out.push('|');
            for w in &widths {
                out.push_str(&format!("{:-<w$}|", "", w = w + 2));
            }
            out.push('\n');
            for row in &rows {
                out.push_str(&line(row));
            }
        }
        out.push_str(&self.footer);
        Some(out)
    }

    /// The CSV view, if the table has a CSV column.
    pub fn csv(&self) -> Option<String> {
        let cols: Vec<usize> =
            (0..self.columns.len()).filter(|&i| self.columns[i].csv.is_some()).collect();
        if cols.is_empty() {
            return None;
        }
        let line = |cells: Vec<String>| cells.join(",") + "\n";
        let header = cols.iter().filter_map(|&i| self.columns[i].csv.as_deref()).map(field);
        let mut out = line(header.collect());
        for row in &self.rows {
            out.push_str(&line(cols.iter().map(|&i| row[i].in_csv()).collect()));
        }
        Some(out)
    }
}

/// Escapes one CSV field.
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("title");
        t.column("a", "a_csv").text_column("long").csv_column("only_csv");
        t.row(vec![Cell::text("xx"), Cell::Ratio(1.0), Cell::Ratio(0.5)]);
        t.row(vec![Cell::text("4,5"), Cell::text(22), Cell::text("q\"q")]);
        t.summary_row(vec![Cell::text("mean"), Cell::Ratio(2.0), Cell::text("")]);
        t.footer("done\n");
        t
    }

    #[test]
    fn text_view_aligns_the_text_columns() {
        let text = sample().text().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "title",
                "| a    | long |",
                "|------|------|",
                "| xx   | 1.00 |",
                "| 4,5  | 22   |",
                "| mean | 2.00 |",
                "done",
            ]
        );
    }

    #[test]
    fn csv_view_has_the_csv_columns_and_no_summary() {
        assert_eq!(sample().csv().unwrap(), "a_csv,only_csv\nxx,0.5000\n\"4,5\",\"q\"\"q\"\n");
    }

    #[test]
    fn views_exist_only_where_they_have_content() {
        let mut csv_only = Table::new("");
        csv_only.csv_column("x").row(vec![Cell::text(1)]);
        assert_eq!(csv_only.text(), None);
        assert_eq!(csv_only.csv().as_deref(), Some("x\n1\n"));
        let mut prose = Table::new("heading");
        prose.footer("body\n");
        assert_eq!(prose.text().as_deref(), Some("heading\nbody\n"));
        assert_eq!(prose.csv(), None);
    }

    #[test]
    fn fields_are_escaped() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
