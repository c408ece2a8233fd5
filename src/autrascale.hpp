// Umbrella header: the whole AuTraScale public API in one include.
//
//   #include "autrascale.hpp"
//
// Layers (each usable on its own):
//   exec      — shared thread pool + deterministic parallel primitives
//   linalg    — dense matrices + Cholesky (the GP's numerical core)
//   gp        — kernels, GP regression, Expected Improvement
//   bo        — discrete search space + generic Bayesian-optimisation loop
//   sim       — the streaming-system simulator (topology, cluster, engine,
//               Kafka/Redis stand-ins, job runner, chaining)
//   workloads — the paper's evaluation jobs
//   core      — AuTraScale: throughput optimisation, scoring, Algorithm 1,
//               Algorithm 2, rate-aware extension, model persistence, MAPE
//               controller
//   baselines — DS2, DRS, threshold, Dhalion
#pragma once

#include "exec/exec.hpp"

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

#include "gp/acquisition.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "gp/normal.hpp"

#include "bayesopt/bayes_opt.hpp"
#include "bayesopt/search_space.hpp"

#include "streamsim/chaining.hpp"
#include "streamsim/cluster.hpp"
#include "streamsim/engine.hpp"
#include "streamsim/external_service.hpp"
#include "streamsim/interference.hpp"
#include "streamsim/job_runner.hpp"
#include "streamsim/kafka.hpp"
#include "streamsim/latency.hpp"
#include "streamsim/rates.hpp"
#include "streamsim/topology.hpp"

#include "workloads/workloads.hpp"

#include "core/bootstrap.hpp"
#include "core/controller.hpp"
#include "core/model_io.hpp"
#include "core/rate_aware.hpp"
#include "core/scoring.hpp"
#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "core/transfer.hpp"

#include "baselines/dhalion.hpp"
#include "baselines/drs.hpp"
#include "baselines/ds2.hpp"
#include "baselines/threshold.hpp"
