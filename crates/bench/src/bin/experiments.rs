//! The table/figure reproduction harness.
//!
//! ```text
//! experiments <id>... [--scale S] [--seed N] [--out DIR]
//!
//!   ids: table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 bound all
//!   --scale S   item/cluster scale factor in (0, 1] (default 0.05;
//!               1.0 = the paper's exact sizes)
//!   --seed N    master seed (default 42)
//!   --out DIR   also write each table as CSV under DIR
//! ```

use lshclust_bench::figures::{self, Report, Suite};
use lshclust_bench::scale::Settings;
use std::process::ExitCode;

const ALL_IDS: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "bound", "ablate", "sweep",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id>... [--scale S] [--seed N] [--out DIR]\n  ids: {} all",
        ALL_IDS.join(" ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut settings = Settings::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s <= 1.0 => settings.scale = s,
                _ => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => settings.seed = s,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(dir) => settings.out_dir = Some(dir.into()),
                None => return usage(),
            },
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => ids.push(id.to_owned()),
            _ => return usage(),
        }
    }
    if ids.is_empty() {
        return usage();
    }

    eprintln!(
        "# lshclust experiments: scale={} seed={} (paper sizes = --scale 1.0)",
        settings.scale, settings.seed
    );
    // Warm-up: a throwaway paired run so one-time process costs (allocator,
    // page faults, lazy relocations) don't land in the first timed series.
    {
        use lshclust_datagen::datgen::{generate, DatgenConfig};
        let ds = generate(&DatgenConfig::new(400, 50, 50).seed(1));
        let _ = lshclust_core::mhkmodes::paired_run(
            &ds,
            50,
            lshclust_minhash::Banding::new(20, 5),
            1,
            10,
        );
    }
    let mut suite = Suite::new(settings.clone());
    for id in &ids {
        let start = std::time::Instant::now();
        let report: Report = match id.as_str() {
            "table1" => figures::table1(&settings),
            "table2" => figures::table2(&settings),
            "fig2" => figures::fig2(&mut suite),
            "fig3" => figures::fig3(&mut suite),
            "fig4" => figures::fig4(&mut suite),
            "fig5" => figures::fig5(&mut suite),
            "fig6" => figures::fig6(&mut suite),
            "fig7" => figures::fig7(&mut suite),
            "fig8" => figures::fig8(&mut suite),
            "fig9" => figures::fig9(&settings),
            "fig10" => figures::fig10(&settings),
            "bound" => figures::bound(&settings),
            "ablate" => lshclust_bench::ablate::run(&settings),
            "sweep" => lshclust_bench::ablate::sweep(&settings),
            _ => unreachable!("validated above"),
        };
        println!("{}", report.render());
        eprintln!("# {id} done in {:.1}s", start.elapsed().as_secs_f64());
        if let Some(dir) = &settings.out_dir {
            if let Err(e) = report.write_csvs(dir, id) {
                eprintln!(
                    "error: failed to write CSVs for {id} to {}: {e}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
