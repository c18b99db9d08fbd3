#ifndef MOUSE_COMMON_SCHEMA_VERSIONS_HH
#define MOUSE_COMMON_SCHEMA_VERSIONS_HH

/**
 * Central registry of every JSON document schema version this repo
 * emits.  Each constant below versions one document family; bumping
 * one is a contract change that must be reflected in the docs named
 * next to it and in the consumers listed there.
 *
 * The determinism lint (tools/mouse_lint.py, rule schema-constants)
 * rejects JSON emitters that inline a schema number instead of
 * referencing these constants, so every version literal in the tree
 * lives on this page and nowhere else.
 */

namespace mouse::schema {

/** "schema" field of every RunResult/SweepResult document, the
 *  injection campaign + replay reports of src/inject, and the
 *  serve_report documents of src/serve.  History: 2 = injection
 *  reports landed; 3 = "error" field on rejected requests; 4 = the
 *  optional "serve" batch/queue block and the serve_report document;
 *  5 = "source"/"platform" scenario provenance in the point block;
 *  6 = "system"/"scheme" baseline provenance in the point block;
 *  7 = exact closed-form harvesting, which changes the results of
 *  every time-varying source; 8 = the MCU baseline runs in the
 *  simulators' burst loop, and platform front ends derate the source
 *  instead of the load, which moves every MCU point and every MOUSE
 *  point on a platform.  The v4 "serve" block was later removed
 *  without a bump: no emitter outside the deleted asynchronous
 *  Accelerator queue ever produced it.  The injection report's
 *  "env_sources"/"env_platform" campaign keys went the same way:
 *  every emitter outside the tests wrote [] and ""
 *  (docs/EXPERIMENTS_API.md, docs/FAULT_INJECTION.md,
 *  docs/SERVING.md, docs/HARVESTING.md, docs/BASELINES.md). */
inline constexpr int kResultSchemaVersion = 8;

/** "trace_schema" field of power-trace documents parsed and emitted
 *  by src/harvest/power_trace (docs/HARVESTING.md "Trace format").
 *  Version 1: {"trace_schema", "name", "segments":[{"duration_s",
 *  "power_w"}...]}. */
inline constexpr int kPowerTraceSchemaVersion = 1;

} // namespace mouse::schema

#endif // MOUSE_COMMON_SCHEMA_VERSIONS_HH
