//! The maps phase: cold one-shot builds on the workload's reference
//! floorplan — all eight `SpatialCongestion` rasters plus the staircase
//! router (the comparison harness's model suite), and the Irregular-Grid
//! congestion map. PathFinder is left out: ≈ 29 s per syn10k build.

use std::hint::black_box;
use std::time::Instant;

use irgrid::congestion::analysis::Raster;
use irgrid::congestion::{
    CongestionModel, DeltaCongestion, DeltaCongestionSession, FixedGridModel, IrCongestionMap,
    IrregularGridModel, LzShapeModel, SpatialCongestion, UnitGrid,
};
use irgrid::geom::Um;
use irgrid::models::{
    NetDemandModel, PinDensityModel, RentDemandModel, SpanDemandModel, WeightedNetDemandModel,
};
use irgrid::route::{StaircaseConfig, StaircaseResult, StaircaseRouter};

use crate::gates::{self, GateError};
use crate::inputs::Input;
use crate::report::Record;
use crate::trace::Tracer;

/// The suite's models, each with the span (and layer metric) it reports
/// under.
fn zoo(pitch: Um) -> Vec<(&'static str, Box<dyn SpatialCongestion>)> {
    vec![
        ("core.fixed_raster", Box::new(FixedGridModel::new(pitch))),
        ("core.lz_raster", Box::new(LzShapeModel::new(pitch))),
        (
            "core.irregular_raster",
            Box::new(IrregularGridModel::new(pitch)),
        ),
        ("models.pin_density", Box::new(PinDensityModel::new(pitch))),
        ("models.net_demand", Box::new(NetDemandModel::new(pitch))),
        (
            "models.weighted_net_demand",
            Box::new(WeightedNetDemandModel::new(pitch)),
        ),
        ("models.rent_demand", Box::new(RentDemandModel::new(pitch))),
        ("models.span_demand", Box::new(SpanDemandModel::new(pitch))),
    ]
}

fn router(pitch: Um) -> StaircaseRouter {
    StaircaseRouter::new(StaircaseConfig {
        pitch,
        ..StaircaseConfig::default()
    })
}

/// One pass of the suite: every model's raster and the staircase route,
/// with the seconds each build took (the route's last).
fn suite(
    input: &Input,
    models: &[(&'static str, Box<dyn SpatialCongestion>)],
    stair: &StaircaseRouter,
) -> (Vec<Raster>, StaircaseResult, Vec<f64>) {
    let chip = input.placement.chip();
    let mut build_s = Vec::with_capacity(models.len() + 1);
    let rasters = models
        .iter()
        .map(|(_, model)| {
            let clock = Instant::now();
            let raster = model.raster(&chip, &input.segments);
            build_s.push(clock.elapsed().as_secs_f64());
            raster
        })
        .collect();
    let clock = Instant::now();
    let route = stair.route(&chip, input.placement.module_rects(), &input.segments);
    build_s.push(clock.elapsed().as_secs_f64());
    (rasters, route, build_s)
}

fn ir_values(map: &IrCongestionMap) -> Vec<f64> {
    let mut values: Vec<f64> = map
        .x_cuts()
        .iter()
        .chain(map.y_cuts())
        .map(|&c| c as f64)
        .collect();
    for j in 0..map.ir_rows() {
        for i in 0..map.ir_cols() {
            values.push(map.total(i, j));
        }
    }
    values
}

/// The maps phase of one run: the suite, its reference outputs, and the
/// reference Irregular-Grid map.
pub struct Maps<'a> {
    input: &'a Input,
    models: Vec<(&'static str, Box<dyn SpatialCongestion>)>,
    stair: StaircaseRouter,
    reference: Vec<Raster>,
    route: StaircaseResult,
    ir_values: Vec<f64>,
    ir_cells: usize,
}

impl<'a> Maps<'a> {
    /// Builds every output once and checks it.
    ///
    /// # Errors
    ///
    /// A raster whose dimensions differ from the unit grid, a
    /// non-finite or negative cell, or an Irregular-Grid map whose cost
    /// differs from the model's score.
    pub fn prepare(input: &'a Input, record: &mut Record) -> Result<Maps<'a>, GateError> {
        let chip = input.placement.chip();
        let grid = UnitGrid::new(&chip, input.pitch);
        let shape = (grid.cols() as usize, grid.rows() as usize);
        let models = zoo(input.pitch);
        let stair = router(input.pitch);
        let (reference, route, _) = suite(input, &models, &stair);
        for ((name, _), raster) in models.iter().zip(&reference) {
            gates::raster_shape(name, (raster.cols(), raster.rows()), shape)?;
            gates::finite_non_negative(name, raster.values())?;
        }
        let routed = route.usage.raster();
        gates::raster_shape("route.staircase", (routed.cols(), routed.rows()), shape)?;
        gates::finite_non_negative("route.staircase", routed.values())?;

        let model = IrregularGridModel::new(input.pitch);
        let map = model.congestion_map(&chip, &input.segments);
        gates::same_bits(
            "irregular map cost vs the model's score",
            map.cost(),
            model.evaluate(&chip, &input.segments),
        )?;
        record.ops.ok(models.len() + 3);
        Ok(Maps {
            input,
            models,
            stair,
            reference,
            route,
            ir_values: ir_values(&map),
            ir_cells: map.ir_cell_count(),
        })
    }

    /// A timed pass of the suite: the seconds of each build. Its outputs
    /// must equal the reference bit for bit.
    ///
    /// # Errors
    ///
    /// A repeated build that differs.
    pub fn suite_pass(&self, record: &mut Record) -> Result<Vec<f64>, GateError> {
        let (rasters, route, build_s) = suite(self.input, &self.models, &self.stair);
        for ((name, _), (raster, first)) in
            self.models.iter().zip(rasters.iter().zip(&self.reference))
        {
            gates::same_values(&format!("repeated {name}"), raster.values(), first.values())?;
        }
        gates::holds(route.usage.counts() == self.route.usage.counts(), || {
            "repeated staircase route differs".into()
        })?;
        record.ops.ok(self.models.len() + 1);
        Ok(build_s)
    }

    /// A timed Irregular-Grid map build, in seconds; the map must equal
    /// the reference bit for bit.
    ///
    /// # Errors
    ///
    /// A repeated build that differs.
    pub fn irregular_pass(&self, record: &mut Record) -> Result<f64, GateError> {
        let chip = self.input.placement.chip();
        let model = IrregularGridModel::new(self.input.pitch);
        let clock = Instant::now();
        let map = model.congestion_map(&chip, &self.input.segments);
        let seconds = clock.elapsed().as_secs_f64();
        gates::same_values("repeated irregular map", &ir_values(&map), &self.ir_values)?;
        record.ops.ok(1);
        Ok(seconds)
    }

    /// One traced pass: each model, the router and the Q32 delta rebase
    /// in spans of their own.
    pub fn trace_pass(&self, tracer: &mut Tracer, record: &mut Record) {
        let input = self.input;
        let chip = input.placement.chip();
        for (name, spatial) in &self.models {
            tracer.span(name, 0, || {
                black_box(spatial.raster(&chip, &input.segments))
            });
        }
        tracer.span("route.staircase", 0, || {
            black_box(
                self.stair
                    .route(&chip, input.placement.module_rects(), &input.segments),
            )
        });
        let model = IrregularGridModel::new(input.pitch);
        tracer.span("core.delta_rebase", 0, || {
            black_box(model.delta_session().rebase(&chip, &input.segments))
        });
        record.ops.ok(self.models.len() + 2);
    }

    /// Records the maps layer metrics from the traced passes.
    pub fn record_trace(&self, tracer: &Tracer, record: &mut Record) {
        let names = self
            .models
            .iter()
            .map(|(name, _)| *name)
            .chain(["route.staircase", "core.delta_rebase"]);
        for name in names {
            record.layers.put(
                format!("{name}_ms"),
                tracer.fastest(name).total_per_item_us() / 1e3,
                "ms",
            );
        }
        record
            .layers
            .put("route.staircase_cuts", self.route.cut_count as f64, "count");
        record
            .layers
            .put("core.ir_cells", self.ir_cells as f64, "count");
    }
}
