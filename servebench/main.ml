(* servebench — drives `certdb serve --socket` with a seeded workload,
   checks every answer against an in-process oracle, and prints the
   end-to-end metrics (--trace 0) or the per-layer metrics of a traced
   in-process replay of the same stream (--trace 1).  The last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics.  See README.md in this directory. *)

open Workloads

let setups = 21

(* requests of the measured phase the traced run replays, at most *)
let max_replay = 10_000

(* wall time the untraced replay may take; the traced one replays as far *)
let replay_budget_s = 10.0

(* ---- statistics ------------------------------------------------------ *)

let sorted l = List.sort Float.compare (List.filter (fun x -> not (Float.is_nan x)) l)

(* linear interpolation between order statistics *)
let quantile l p =
  match sorted l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let h = p *. float_of_int (Array.length a - 1) in
    let i = truncate h in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((h -. float_of_int i) *. (a.(j) -. a.(i)))

let median l = quantile l 0.5
let mean l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let sum = List.fold_left ( +. ) 0.0

(* The [p] quantile, its name, the number of samples and how many lie
   beyond it.  Each workload fixes [p] for its queries, and writes use
   p90: a percentile picked from the sample count (p99 once ten samples
   lie beyond it) flips between p90 and p99 from run to run whenever the
   host's speed moves the count across 1000. *)
let tail p l =
  let n = List.length (sorted l) in
  let beyond = n - int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  (quantile l p, Printf.sprintf "p%.0f" (100.0 *. p), n, beyond)

(* ---- the churn cache schedule ------------------------------------------ *)

(* An independent model of the server's LRU answer cache and query-text
   memo over the executed prefix of a one-connection stream, pass after
   pass if the stream is cyclic: which requests must hit, miss and evict,
   and how many entries each write's invalidation must drop. *)
type schedule = {
  hits : int; misses : int; evictions : int;
  memo_hits : int; memo_misses : int;
  dropped : int list;  (** per write, in order *)
}

let model_schedule items k =
  let cap = 1024 in
  let entries = Hashtbl.create 2048 and texts = Hashtbl.create 256 in
  let clock = ref 0 and version = ref 0 in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let memo_hits = ref 0 and memo_misses = ref 0 and dropped = ref [] in
  let tick () = incr clock; !clock in
  for i = 0 to k - 1 do
    match items.(i mod Array.length items) with
    | Write w ->
      version := w.version;
      let victims =
        Hashtbl.fold
          (fun cls (_, v, rel) acc -> if v = w.version && rel = w.wrel then cls :: acc else acc)
          entries []
      in
      List.iter (Hashtbl.remove entries) victims;
      dropped := List.length victims :: !dropped
    | Query q ->
      if Hashtbl.mem texts q.text then incr memo_hits
      else (incr memo_misses; Hashtbl.replace texts q.text ());
      (match Hashtbl.find_opt entries q.cls with
      | Some (_, v, rel) ->
        incr hits;
        Hashtbl.replace entries q.cls (tick (), v, rel)
      | None ->
        incr misses;
        Hashtbl.replace entries q.cls (tick (), !version, q.qrel);
        if Hashtbl.length entries > cap then begin
          let victim, _ =
            Hashtbl.fold
              (fun cls (t, _, _) (best, bt) -> if t < bt then (cls, t) else (best, bt))
              entries ("", max_int)
          in
          Hashtbl.remove entries victim;
          incr evictions
        end)
  done;
  { hits = !hits; misses = !misses; evictions = !evictions;
    memo_hits = !memo_hits; memo_misses = !memo_misses;
    dropped = List.rev !dropped }

(* ---- output ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit)
          metrics))

(* ---- the run ----------------------------------------------------------- *)

(* spans, traces, the server's socket and its log *)
let dir = ".servebench"

let usage () =
  prerr_endline
    "usage: servebench --certdb EXE --workload (hot-replay|cold-mix|churn) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  (* a larger minor heap and slower major collection: the measuring
     process should pause as little as it can while it times *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 200 };
  (* a signal ends the run through [exit], so at_exit reaps the server *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let exe = get "certdb" and workload = get "workload" in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" = 1 in
  if not (List.mem workload Workloads.names) then usage ();
  if seconds < 1 then usage ();
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let t_gen = Serve.now_ms () in
  let w = Workloads.make workload seed in
  say "servebench %s seed=%d seconds=%d trace=%b: %d items (%s); generated with oracle answers in %.2f s"
    workload seed seconds trace (Array.length w.items)
    (if w.cyclic then "cyclic" else "once")
    ((Serve.now_ms () -. t_gen) /. 1000.0);
  (* set-up, several times; the last server stays up for the run.  The
     generator's garbage is collected first, so no collection of this
     process lands in a timed section. *)
  Gc.compact ();
  let setup_times = ref [] in
  let rec boot i =
    let s, dt = Serve.start ~exe ~dir ~dbs:w.dbs in
    setup_times := dt :: !setup_times;
    if i < setups then (Serve.stop s; boot (i + 1)) else s
  in
  let s = boot 1 in
  let before = Serve.counters s in
  let samples, wall_s, qps = Serve.phase s w ~seconds in
  let after = Serve.counters s in
  let rss = Serve.peak_rss_mb s in
  Serve.stop s;
  let d = Serve.delta before after in
  (* correctness *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter (fun x -> match x.Serve.outcome with Serve.Wrong m -> problem "wrong answer: %s" m | _ -> ()) samples;
  let failures = List.filter (fun x -> match x.Serve.outcome with Serve.Failed _ -> true | _ -> false) samples in
  List.iteri (fun i x -> match x.Serve.outcome with
      | Serve.Failed m when i < 3 -> say "failed request %d: %s" x.Serve.idx m
      | _ -> ()) failures;
  if w.schedule then begin
    let k = List.length samples in
    if List.exists (fun x -> x.Serve.idx >= k) samples then problem "churn: executed items are not a prefix";
    let e = model_schedule w.items k in
    let expect name got want = if got <> want then problem "churn schedule: %s = %d, expected %d" name got want in
    expect "service.cache.hit" (d "service.cache.hit") e.hits;
    expect "service.cache.miss" (d "service.cache.miss") e.misses;
    expect "service.cache.evict" (d "service.cache.evict") e.evictions;
    expect "service.canon.hit" (d "service.canon.hit") e.memo_hits;
    expect "service.canon.miss" (d "service.canon.miss") e.memo_misses;
    let got = List.filter_map (fun x -> if x.Serve.write then Some x.Serve.invalidated else None) samples in
    if got <> e.dropped then problem "churn schedule: per-write invalidations differ from the model";
    say "churn schedule, modelled: %d hits, %d misses, %d evictions, %d invalidated, memo %d hits / %d misses"
      e.hits e.misses e.evictions (List.fold_left ( + ) 0 e.dropped) e.memo_hits e.memo_misses
  end;
  let ok x = x.Serve.outcome = Serve.Ok_reply in
  let queries = List.filter (fun x -> (not x.Serve.write) && ok x) samples in
  let writes = List.filter (fun x -> x.Serve.write && ok x) samples in
  let rtts l = List.map (fun x -> x.Serve.rtt_ms) l in
  let q_tail, q_p, q_n, q_b = tail w.query_tail (rtts queries) in
  let w_tail, w_p, w_n, w_b = tail 0.90 (rtts writes) in
  let attempted = List.length samples and failed = List.length failures in
  say "measured phase: %.3f s, %d queries and %d writes completed, %d failed"
    wall_s (List.length queries) (List.length writes) failed;
  say "error_ratio %.6f ratio (%d of %d attempted)" (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  say "query_tail_ms is %s of %d samples (%d beyond); write_tail_ms is %s of %d samples (%d beyond)"
    q_p q_n q_b w_p w_n w_b;
  (* counters each workload touched *)
  let families = [ "service.cache."; "service.canon."; "query.plan."; "csp."; "rel.hom." ] in
  Hashtbl.fold (fun k _ acc -> k :: acc) after []
  |> List.sort_uniq compare
  |> List.iter (fun k ->
         if List.exists (fun f -> String.starts_with ~prefix:f k) families && d k <> 0 then
           say "  counter %-36s %+d" k (d k));
  let end_to_end =
    [
      m "setup_s" "s" (median !setup_times);
      m "throughput_qps" "req/s" qps;
      m "query_p50_ms" "ms" (median (rtts queries));
      m "query_tail_ms" "ms" q_tail;
      m "write_p50_ms" "ms" (median (rtts writes));
      m "write_tail_ms" "ms" w_tail;
      m "server_rss_mb" "MB" rss;
    ]
  in
  let metrics =
    if not trace then end_to_end
    else begin
      let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
      let front = List.filter (fun x -> not (Float.is_nan x.Serve.server_ms)) queries in
      let gaps = List.map (fun x -> x.Serve.rtt_ms -. x.Serve.server_ms) front in
      (* the same stream, in process: untraced first (bounded), traced on
         exactly the items the untraced replay reached *)
      let executed =
        List.filteri (fun i _ -> i < max_replay) samples
        |> List.map (fun x ->
               let n = Array.length w.items in
               (x.Serve.idx, x.Serve.idx / n, w.items.(x.Serve.idx mod n)))
      in
      let _, reached, plain_s =
        Replay.run ~on:false ~budget_s:(Float.min replay_budget_s (float_of_int seconds)) ~setup:w.dbs ~main:executed ()
      in
      let main = List.filteri (fun i _ -> i < reached) executed in
      let r, _, traced_s = Replay.run ~on:true ~setup:w.dbs ~main () in
      let path = Filename.concat dir (Printf.sprintf "trace-%s.json" workload) in
      Replay.write_chrome r path;
      let selfs = Replay.self_times r in
      let self_of pred = sum (List.filter_map (fun (s, st) -> if pred s then Some st else None) selfs) in
      let roots = List.filter (fun (s, _) -> s.Replay.parent < 0) selfs in
      let root_total = sum (List.map (fun (s, _) -> s.Replay.end_ms -. s.Replay.start_ms) roots) in
      let is_solve s = String.starts_with ~prefix:"solve." s.Replay.name in
      (* median per call; 0 when the workload never made the call *)
      let med0 name scale =
        match Replay.durations r name with [] -> 0.0 | l -> scale *. median l
      in
      let solve_mean route =
        let l = List.filter_map (fun (s, st) -> if s.Replay.name = "solve." ^ route then Some st else None) selfs in
        if l = [] then 0.0 else mean l
      in
      say "trace: %d spans over %d of %d requests; replay %.3f s traced vs %.3f s untraced; written to %s"
        (List.length r.Replay.spans) reached (List.length executed) traced_s plain_s path;
      let routes = [ "naive_eval"; "acyclic_join"; "bounded_width"; "hom_ladder"; "components"; "sat" ] in
      [
        m "front.overhead_p50_ms" "ms" (median gaps);
        m "front.share" "ratio" (sum gaps /. sum (rtts front));
        m "wire.json_parse_us" "us" (med0 "wire.json_parse" 1000.0);
        m "wire.cq_parse_us" "us" (med0 "wire.cq_parse" 1000.0);
        m "wire.format_us" "us" (med0 "wire.format" 1000.0);
        m "wire.instance_parse_ms" "ms" (med0 "wire.instance_parse" 1.0);
        m "canon.cq_key_ms" "ms" (med0 "canon.cq_key" 1.0);
        m "canon.cq_key_calls" "count" (float_of_int (d "service.canon.miss"));
        m "canon.memo_hit_ratio" "ratio" (ratio (d "service.canon.hit") (d "service.canon.miss"));
        m "canon.bypasses" "count" (float_of_int (d "service.cache.bypass"));
        m "canon.fingerprint_ms" "ms" (med0 "canon.fingerprint" 1.0);
        m "cache.hit_ratio" "ratio" (ratio (d "service.cache.hit") (d "service.cache.miss"));
        m "cache.find_us" "us" (med0 "cache.find" 1000.0);
        m "cache.evictions" "count" (float_of_int (d "service.cache.evict"));
        m "cache.invalidate_ms" "ms" (med0 "cache.invalidate" 1.0);
        m "cache.invalidated" "count" (float_of_int (d "service.cache.footprint_hit"));
        m "footprint.of_cq_us" "us" (med0 "footprint.of_cq" 1000.0);
        m "plan.route_us" "us" (med0 "plan.route" 1000.0);
      ]
      @ List.map (fun rt -> m ("plan.route." ^ rt) "count" (float_of_int (d ("query.plan." ^ rt)))) routes
      @ List.map (fun rt -> m ("solve." ^ rt ^ "_ms") "ms" (solve_mean rt)) routes
      @ [
          m "solve.share" "ratio" (self_of is_solve /. root_total);
          m "effort.rel_hom_nodes" "count" (float_of_int (d "rel.hom.nodes"));
          m "effort.csp_decisions" "count" (float_of_int (d "csp.solver.decisions"));
          m "effort.csp_backtracks" "count" (float_of_int (d "csp.solver.backtracks"));
          m "effort.btw_bag_assignments" "count" (float_of_int (d "csp.btw.bag_assignments"));
          m "effort.sat_conflicts" "count" (float_of_int (d "csp.sat.conflicts"));
          m "effort.resilient_attempts" "count" (float_of_int (d "csp.resilient.attempts"));
          m "trace.unattributed_share" "ratio" (sum (List.map snd roots) /. root_total);
          m "trace.overhead_ratio" "ratio" (traced_s /. plain_s);
        ]
    end
  in
  List.iter (fun x -> say "%-28s %14.6f %s" x.name x.value x.unit) (if trace then end_to_end @ metrics else metrics);
  List.iter (fun x -> if not (Float.is_finite x.value) then problem "metric %s was not measured" x.name) metrics;
  let correct = !problems = [] in
  List.iteri (fun i p -> if i < 20 then say "FAIL %s" p) (List.rev !problems);
  if List.length !problems > 20 then say "FAIL ... and %d more" (List.length !problems - 20);
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
