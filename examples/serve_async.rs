//! The async serving frontend: per-job completion handles, ordered
//! result streaming, priorities with admission control, and deadline
//! expiry — all over one live runtime session.
//!
//! Run with: `cargo run --example serve_async`

use coruscant::mem::MemoryConfig;
use coruscant::runtime::RuntimeOptions;
use coruscant::server::{
    AdmissionOptions, Priority, Rejected, ServeError, Server, ServerOptions, SubmitOptions,
};
use coruscant::workloads::bitmap::BitmapDataset;
use coruscant::workloads::serve::{compile_bitmap_query, serve_bitmap_query_streamed, QueryPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = MemoryConfig::tiny();
    let ds = BitmapDataset::generate(20_000, 4, 1);

    // --- 1. Streamed serving: results arrive per job, in order. -------
    let (count, stats) =
        serve_bitmap_query_streamed(&ds, 3, &config, ServerOptions::default(), QueryPlan::Fused)?;
    assert_eq!(count, ds.reference_count(3), "served answer must be exact");
    println!(
        "Streamed query: {count} matching users across {} chunk jobs",
        stats.completed
    );
    println!(
        "Accounting: {} submitted = {} completed + {} rejected (balanced: {})\n",
        stats.submitted,
        stats.completed,
        stats.rejected(),
        stats.balanced()
    );

    // --- 2. Raw handles: submit, then block (or .await) per job. ------
    let server = Server::start(config.clone(), ServerOptions::default())?;
    let client = server.client();
    let mut handles = Vec::new();
    for program in compile_bitmap_query(&ds, 2, &config)? {
        handles.push(client.submit(program).map_err(|r| r.to_string())?);
    }
    println!("Submitted {} jobs; first resolution:", handles.len());
    let first = handles.remove(0).wait().expect("job completes");
    println!(
        "  job {} on bank {} (attempt {}), {} labeled readouts",
        first.job_id,
        first.bank,
        first.attempt,
        first.outputs.len()
    );
    for h in handles {
        h.wait().expect("job completes");
    }
    server.shutdown().map_err(|e| e.to_string())?;

    // --- 3. Admission control: gate the scheduler, watch Low shed. ----
    let mut runtime = RuntimeOptions::default().paused();
    runtime.queue_capacity = 4;
    let server = Server::start(
        config.clone(),
        ServerOptions {
            runtime,
            admission: AdmissionOptions::enabled(),
            ..ServerOptions::default()
        },
    )?;
    let client = server.client();
    let mut admitted = 0;
    let mut shed = 0;
    for (i, program) in compile_bitmap_query(&ds, 1, &config)?
        .into_iter()
        .enumerate()
    {
        let priority = if i % 2 == 0 {
            Priority::High
        } else {
            Priority::Low
        };
        match client.submit_with(program, SubmitOptions::priority(priority)) {
            Ok(_) => admitted += 1,
            Err(Rejected::Overload | Rejected::QueueFull) => shed += 1,
            Err(other) => return Err(other.to_string().into()),
        }
    }
    let stats = server.shutdown().map_err(|e| e.to_string())?;
    println!("\nAdmission-controlled burst into a gated queue of 4:");
    println!(
        "  {admitted} admitted, {shed} shed; server counted {} overload rejections",
        stats.rejected_overload
    );

    // --- 4. Deadlines: a queued job expires before the gate opens. ----
    let server = Server::start(
        config.clone(),
        ServerOptions {
            runtime: RuntimeOptions::default().paused(),
            admission: AdmissionOptions::default(),
            ..ServerOptions::default()
        },
    )?;
    let client = server.client();
    let mut programs = compile_bitmap_query(&ds, 1, &config)?.into_iter();
    let doomed = client
        .submit_with(
            programs.next().unwrap(),
            SubmitOptions::default().with_deadline(std::time::Duration::from_millis(20)),
        )
        .map_err(|r| r.to_string())?;
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.resume();
    assert_eq!(doomed.wait(), Err(ServeError::Expired));
    let stats = server.shutdown().map_err(|e| e.to_string())?;
    println!(
        "\nDeadline demo: {} job expired while queued (runtime expired {}), never touched a bank",
        stats.expired, stats.runtime.expired
    );
    Ok(())
}
