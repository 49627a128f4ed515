"""One campaign in a fresh process, started by run.py.

    python3 bench/campaign.py MODE SPEC_JSON REPORT_JSON [SPANS_JSON]

MODE is `setup` (import circulaw, parse the spec, exit), `timed` (run the
campaign untraced) or `traced` (run it with span tracing and write the spans
to SPANS_JSON after the campaign ends). The last stdout line is a JSON object
with `ready_at` (CLOCK_MONOTONIC when the spec was parsed; run.py subtracts
its spawn time to get setup_s), `campaign_s` (run_experiment + write_report
wall time), `cpu_s` (process CPU time over the same span, all threads),
`maxrss_kb` and the process metadata.
"""

import json
import sys
import time


def main(argv):
    mode, spec_path, report_path = argv[:3]
    from circulaw.experiments import ExperimentSpec, run_experiment, write_report

    with open(spec_path, encoding="utf-8") as fh:
        spec = ExperimentSpec.from_json_dict(json.load(fh))
    result = {"ready_at": time.monotonic()}
    if mode != "setup":
        spans_path = argv[3] if mode == "traced" else None
        result.update(_campaign(mode, spec, report_path, spans_path, run_experiment, write_report))
    print(json.dumps(result))
    return 0


def _campaign(mode, spec, report_path, spans_path, run, write):
    import os
    import resource

    import circulaw
    import runinfo

    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.Recorder()
        recorder.install()
        run = recorder.wrap("experiments.run_experiment", run)
        write = recorder.wrap("experiments.write_report", write,
                              lambda args, _: {"bytes": os.path.getsize(args[1])})
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    write(run(spec), report_path, "json")
    campaign_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if recorder is not None:
        recorder.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    return dict(
        runinfo.process_info(),
        campaign_s=campaign_s,
        cpu_s=cpu_s,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        circulaw_file=circulaw.__file__,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
