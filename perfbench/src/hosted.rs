//! Set-up shared by the two workloads served over TCP: profile and register
//! the applications, host them on a `TcpServer`, connect the clients, and
//! warm each application's pre-classification with one `SimulateFunction`.

use std::sync::Arc;

use xorindex::{ConflictProfile, FunctionClass, HashFunction};
use xorindex_serve::{AppId, Client, IndexService, Registration, Request, Response, TcpServer};
use xorindex_verify::SimStats;

use crate::common::{self, timed, Cell, HASHED_BITS};
use crate::layers::Layers;
use crate::probes::SERVER;

/// Client connections of the TCP workloads: at most `nproc` = 2 clients.
pub const CONNECTIONS: usize = 2;

/// One registered application.
#[derive(Debug)]
pub struct App {
    pub label: String,
    pub id: AppId,
    pub cell: Cell,
    pub class: FunctionClass,
    pub profile: ConflictProfile,
    /// The conventional function's simulated stats (the warm-up answer).
    pub conventional: SimStats,
}

impl App {
    pub fn conventional_function(&self) -> HashFunction {
        self.cell.conventional()
    }
}

/// A hosted service with its connected clients.
#[derive(Debug)]
pub struct Hosted {
    pub service: Arc<IndexService>,
    /// Declared before the server so the connections close first on drop.
    pub clients: Vec<Client>,
    pub server: TcpServer,
    pub apps: Vec<App>,
}

/// Where set-up time went.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub trace_s: f64,
    pub accesses: u64,
    pub profile_s: f64,
    pub profile_accesses: u64,
    pub distinct_vectors: u64,
    pub register_s: f64,
}

impl SetupTimes {
    pub fn fill(&self, layers: &mut Layers) {
        layers.trace_s = self.trace_s;
        layers.accesses = self.accesses;
        layers.profile_s = self.profile_s;
        layers.profile_accesses = self.profile_accesses;
        layers.distinct_vectors = self.distinct_vectors;
        layers.register_s = self.register_s;
    }
}

/// Profiles every `(program, cache KB)` once, registers it under each of
/// `classes` with its trace retained, serves the registry over loopback TCP
/// and warms every application.
pub fn setup(
    cells: &[(&str, u64)],
    classes: &[FunctionClass],
) -> Result<(Hosted, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut programs: Vec<&str> = cells.iter().map(|c| c.0).collect();
    programs.dedup();
    let (traces, trace_s) = timed(|| common::benchmark_traces(&programs));
    times.trace_s = trace_s;
    times.accesses = traces.iter().map(|(_, t)| t.data_len() as u64).sum();

    let service = Arc::new(IndexService::new());
    let mut registered = Vec::new();
    for &(program, kb) in cells {
        let at = traces
            .iter()
            .position(|(name, _)| name == program)
            .expect("every program was traced");
        let cell = common::cells(&traces[at..=at], &[kb]).remove(0);
        let (profile, profile_s) = timed(|| {
            ConflictProfile::from_blocks(cell.blocks.iter().copied(), HASHED_BITS, cell.capacity())
        });
        times.profile_s += profile_s;
        times.profile_accesses += cell.blocks.len() as u64;
        times.distinct_vectors += profile.distinct_vectors() as u64;
        for &class in classes {
            let registration = Registration::new(profile.clone(), cell.cache)
                .with_class(class)
                .with_shared_trace(Arc::clone(&cell.blocks));
            let (id, register_s) = timed(|| service.register(registration));
            times.register_s += register_s;
            let id = id.map_err(|e| format!("registering {}: {e}", cell.label))?;
            registered.push((id, cell.clone(), class, profile.clone()));
        }
    }

    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&service), SERVER)
        .map_err(|e| format!("binding the loopback server: {e}"))?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connecting: {e}"))?;
    let mut apps = Vec::new();
    for (id, cell, class, profile) in registered {
        let request = Request::SimulateFunction {
            app: id,
            function: cell.conventional(),
        };
        let conventional = match clients[0].call(&request) {
            Ok(Response::Simulated(sim)) => sim,
            other => return Err(format!("warming {}: {other:?}", cell.label)),
        };
        apps.push(App {
            label: format!("{}/{}", cell.label, common::class_label(class)),
            id,
            cell,
            class,
            profile,
            conventional,
        });
    }
    Ok((
        Hosted {
            service,
            server,
            clients,
            apps,
        },
        times,
    ))
}

/// Runs `setup` `repeats` times, keeping the last state and every wall time.
pub fn repeated_setup(
    repeats: usize,
    cells: &[(&str, u64)],
    classes: &[FunctionClass],
) -> (Hosted, SetupTimes, Vec<f64>) {
    let mut walls = Vec::new();
    let mut last: Option<(Hosted, SetupTimes)> = None;
    for _ in 0..repeats {
        // Stop the previous server before timing the next set-up.
        drop(last.take());
        let (state, s) = timed(|| setup(cells, classes));
        walls.push(s);
        last = Some(state.unwrap_or_else(|e| {
            eprintln!("set-up failed: {e}");
            std::process::exit(1);
        }));
    }
    let (hosted, times) = last.expect("at least one set-up");
    (hosted, times, walls)
}

/// A twin in-process service holding the same applications, registered in
/// the same order (so the ids match) and warmed the same way.
pub fn twin(apps: &[App]) -> IndexService {
    let twin = IndexService::new();
    for app in apps {
        let id = twin
            .register(
                Registration::new(app.profile.clone(), app.cell.cache)
                    .with_class(app.class)
                    .with_shared_trace(Arc::clone(&app.cell.blocks)),
            )
            .expect("the served registration succeeded");
        assert_eq!(id, app.id, "twin registration order matches");
        let _ = twin.simulate_function(id, &app.conventional_function());
    }
    twin
}
