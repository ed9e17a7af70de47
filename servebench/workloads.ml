(* Seeded workload generators.  Everything the server receives is made
   here from the seed: database sources, query texts, write versions.
   The same seed always yields byte-identical inputs. *)

open Model

type query_req = {
  kind : string;  (** shape class, e.g. "cycle3" — the route it targets *)
  db : string;
  text : string;  (** a '#' stands for the pass number: see [text_at] *)
  backend : string option;
  expect : expect;
  cls : string;  (** semantic identity: equal iff the cache key is equal *)
  qrel : string;  (** the relation a write must touch to invalidate it *)
}

type write_req = {
  wdb : string;
  wsource : string;
  wrel : string;  (** relation the new version changed *)
  version : int;  (** equal versions have equal sources *)
}

type item = Query of query_req | Write of write_req

(* A cyclic stream replays its items pass after pass; a '#' in a query
   text becomes the pass number, so such an item is a never-seen text on
   every pass (a renamed variant of the same query). *)
let text_at q ~pass =
  if String.contains q.text '#' then
    String.concat (string_of_int pass) (String.split_on_char '#' q.text)
  else q.text

type t = {
  name : string;
  dbs : (string * string) list;  (** loaded at set-up, in order *)
  items : item array;  (** the measured phase *)
  cyclic : bool;  (** replay [items] round-robin until time is up *)
  schedule : bool;  (** assert the exact cache schedule (one connection) *)
  query_tail : float;
      (** percentile of query_tail_ms: 0.99 where a run completes thousands
          of queries, 0.90 where it completes hundreds *)
}

let names = [ "hot-replay"; "cold-mix"; "churn" ]

(* ---- helpers --------------------------------------------------------- *)

let rng seed salt = Random.State.make [| 0x5e7be; seed; salt |]
let atom r ts = { r; ts }
let boolean atoms = { head = []; atoms }

let rotate j l =
  let n = List.length l in
  if n = 0 then l
  else
    let j = j mod n in
    List.filteri (fun i _ -> i >= j) l @ List.filteri (fun i _ -> i < j) l

let clique_atoms rel vars =
  List.concat_map
    (fun (i, a) ->
      List.filter_map
        (fun (j, b) -> if i < j then Some (atom rel [ V a; V b ]) else None)
        (List.mapi (fun j b -> (j, b)) vars))
    (List.mapi (fun i a -> (i, a)) vars)

let value st ~consts ~nulls ~null_share =
  if Random.State.float st 1.0 < null_share then N (Random.State.int st nulls)
  else C (1 + Random.State.int st consts)

let graph st ~rel ~facts ~consts ~nulls ~null_share =
  List.init facts (fun _ ->
      let rec draw () =
        let a = value st ~consts ~nulls ~null_share
        and b = value st ~consts ~nulls ~null_share in
        if a = b then draw () else { rel; args = [| a; b |] }
      in
      draw ())

let query_req ?backend ?(rel = "R") db prepared ~kind ~cls q =
  Query
    { kind; db; text = query_text q; backend; expect = expected prepared q; cls; qrel = rel }

(* A version of [facts] with [k] facts of [rel] replaced by fresh ones. *)
let mutate st facts ~rel ~k ~consts ~nulls ~null_share =
  let arr = Array.of_list facts in
  let idx =
    List.filter (fun i -> arr.(i).rel = rel) (List.init (Array.length arr) Fun.id)
    |> Array.of_list
  in
  for _ = 1 to k do
    let i = idx.(Random.State.int st (Array.length idx)) in
    arr.(i) <- List.hd (graph st ~rel ~facts:1 ~consts ~nulls ~null_share)
  done;
  Array.to_list arr

(* Hot-replay and cold-mix send their writes beside their reads, to a
   side db of the workload's own size that no query reads, so the writes
   are timed under the workload's load without changing what its reads
   find in the cache.  [side_writes st facts ~db n] makes [n] versions of
   [facts], each with two R facts changed. *)
let side_writes st facts ~db ~consts ~nulls ~null_share n =
  Array.init n (fun i ->
      let f = mutate st facts ~rel:"R" ~k:2 ~consts ~nulls ~null_share in
      { wdb = db; wsource = source f; wrel = "R"; version = i + 1 })

(* [interleave ~every writes items]: a write after every [every] items *)
let interleave ~every writes items =
  List.concat
    (List.mapi
       (fun i x ->
         if (i + 1) mod every = 0 then [ x; Write writes.(i / every mod Array.length writes) ]
         else [ x ])
       (Array.to_list items))
  |> Array.of_list

(* ---- hot-replay -------------------------------------------------------

   e22's ten shapes over a ~10^2-fact db.  49 of every 50 requests are
   one of [variants] fixed renamed, atom-rotated variants of a shape
   drawn Zipf-skewed (weight 1/rank): 80 texts, memo hits after their
   first sighting.  The 50th is a first sighting of the rank-1 shape
   (cycle-5), renamed afresh on every pass, so it parses and
   canonicalises, then hits the cache.  Ten cache keys in all: every
   request but the first of each shape is a cache hit.  The first
   sightings are 2% of requests and all of one shape, so the p99 falls
   in the middle of their canonicalisation times: shapes differ fivefold
   in canonicalisation cost, and a mix of them would put the p99 on a
   step between two. *)

let hot seed =
  let st = rng seed 1 in
  let consts = 8 and nulls = 8 and null_share = 0.2 in
  let facts = graph st ~rel:"R" ~facts:100 ~consts ~nulls ~null_share in
  let db = prepare facts in
  let v j i = Printf.sprintf "v%s_%d" j i in
  let edge j a b = atom "R" [ V (v j a); V (v j b) ] in
  let cycle k j = List.init k (fun i -> edge j i ((i + 1) mod k)) in
  let path k j = List.init k (fun i -> edge j i (i + 1)) in
  let clique k j = clique_atoms "R" (List.init k (v j)) in
  let shapes =
    [
      ("cycle-5", [], cycle 5); ("clique-4", [], clique 4);
      ("cycle-7", [], cycle 7); ("cycle-3", [], cycle 3);
      ("answers-2loop", [ 0 ], fun j -> [ edge j 0 1; edge j 1 0 ]);
      ("cycle-4", [], cycle 4); ("path-6", [], path 6);
      ("cycle-6", [], cycle 6);
      ("back-forth", [], fun j -> [ edge j 0 1; edge j 1 0 ]);
      ("path-3", [], path 3);
    ]
  in
  let variants = 8 and fresh_every = 50 in
  let shape_q (_, head, body) j rot =
    { head = List.map (v j) head; atoms = rotate rot (body j) }
  in
  let expects = List.map (fun s -> expected db (shape_q s "0" 0)) shapes in
  let n = List.length shapes in
  let weights = List.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = List.fold_left ( +. ) 0.0 weights in
  let draw () =
    let x = Random.State.float st total in
    let rec pick r acc = function
      | [] -> n - 1
      | w :: ws -> if x < acc +. w then r else pick (r + 1) (acc +. w) ws
    in
    pick 0 0.0 weights
  in
  let queries =
    Array.init 4096 (fun i ->
        let fresh = i mod fresh_every = fresh_every - 1 in
        let s = if fresh then 0 else draw () in
        let j = Random.State.int st variants in
        let ((name, _, _) as shape) = List.nth shapes s in
        let var = if fresh then Printf.sprintf "%d_#" i else string_of_int j in
        Query
          {
            kind = name; db = "hot"; text = query_text (shape_q shape var j);
            backend = None; expect = List.nth expects s; cls = name; qrel = "R";
          })
  in
  let side = graph st ~rel:"R" ~facts:100 ~consts ~nulls ~null_share in
  let writes = side_writes st side ~db:"hot-w" ~consts ~nulls ~null_share 2 in
  {
    name = "hot-replay";
    dbs = [ ("hot", source facts); ("hot-w", source side) ];
    items = interleave ~every:2048 writes queries; cyclic = true; schedule = false;
    query_tail = 0.99;
  }

(* ---- cold-mix ---------------------------------------------------------

   Only distinct cache keys: every request carries its own anchor
   constants, drawn without repetition — for kinds sent often, or with
   no anchor in the join, also a tag atom T(t) naming a fact the db
   holds, which changes the key but not the work.  One ~10^3-fact db
   (R: 900 edges over 80 constants and 16 nulls, ~10% null positions;
   T: one tag per constant; E: the complete digraph K3).  The kinds and
   the route each one takes:

     point, point2  naive_eval    ans(y) :- R(c,y), T(t) / ans(x) :- R(x,c), T(t)
     scan           naive_eval    ans(x,z) :- R(x,y), R(y,z), T(t)
     path           acyclic_join  R(c,x), R(x,y), R(y,z), T(t)
     cycle3         bounded_width R(c,x) + triangle through x, T(t)
     cycle4         bounded_width R(c,w) + 4-cycle through w
     clique4/5      hom_ladder    R(c,v) + 4/5-clique through v
     product        components    two anchored 4-cliques, disjoint vars
     sat            sat           e27 slice: 4-clique both ways over E,
                                  T(t), "backend":"auto"

   One round is [cold_round]'s counts, each kind spread evenly over it,
   so any stretch of the stream has about the round's mix.  The shares
   put the median inside the acyclic paths (40-70% of the latency order,
   above the point lookups), and the p90 inside the bounded-width
   triangles (3-17% from the top, below the 3% that are slower still):
   both then measure solver work rather than scheduling jitter.  After
   every query, a write reloads the side db "mix-w". *)

let cold_round =
  [ ("point", 12); ("point2", 12); ("path", 18); ("scan", 2); ("product", 2);
    ("sat", 2); ("clique4", 2); ("cycle3", 8); ("cycle4", 1); ("clique5", 1) ]

(* each kind's j-th of c occurrences sits at (j + 1/2) / c of the round *)
let spread counts =
  List.concat_map
    (fun (i, (kind, c)) ->
      List.init c (fun j -> ((float_of_int j +. 0.5) /. float_of_int c, i, kind)))
    (List.mapi (fun i kc -> (i, kc)) counts)
  |> List.sort compare
  |> List.map (fun (_, _, kind) -> kind)

let cold seed =
  let st = rng seed 2 in
  let consts = 80 and nulls = 16 and null_share = 0.1 in
  let r = graph st ~rel:"R" ~facts:900 ~consts ~nulls ~null_share in
  let tags = List.init consts (fun i -> { rel = "T"; args = [| C (i + 1) |] }) in
  let k3 =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a <> b then Some { rel = "E"; args = [| C a; C b |] } else None)
          [ 1; 2; 3 ])
      [ 1; 2; 3 ]
  in
  let facts = r @ tags @ k3 in
  let db = prepare facts in
  let used = Hashtbl.create 1024 in
  let rec fresh ?(tries = 0) kind arity =
    if tries > 10_000 then invalid_arg ("cold-mix: out of fresh anchors for " ^ kind);
    let anchors = List.init arity (fun _ -> 1 + Random.State.int st consts) in
    let cls = kind ^ ":" ^ String.concat "," (List.map string_of_int anchors) in
    if Hashtbl.mem used cls then fresh ~tries:(tries + 1) kind arity
    else (
      Hashtbl.replace used cls ();
      (cls, anchors))
  in
  let anchored c v = atom "R" [ K c; V v ] in
  let tag t = atom "T" [ K t ] in
  let cycle vars =
    List.mapi
      (fun i a -> atom "R" [ V a; V (List.nth vars ((i + 1) mod List.length vars)) ])
      vars
  in
  let vars k pre = List.init k (Printf.sprintf "%s%d" pre) in
  let make kind =
    let cls, cs =
      fresh kind (match kind with "point" | "point2" | "path" | "cycle3" | "product" -> 2 | _ -> 1)
    in
    let c = List.hd cs and t = List.nth cs (List.length cs - 1) in
    match kind with
    | "point" -> (cls, None, { head = [ "y" ]; atoms = [ anchored c "y"; tag t ] })
    | "point2" -> (cls, None, { head = [ "x" ]; atoms = [ atom "R" [ V "x"; K c ]; tag t ] })
    | "scan" ->
      ( cls, None,
        { head = [ "x"; "z" ];
          atoms = [ atom "R" [ V "x"; V "y" ]; atom "R" [ V "y"; V "z" ]; tag t ] } )
    | "path" ->
      ( cls, None,
        boolean [ anchored c "x"; atom "R" [ V "x"; V "y" ]; atom "R" [ V "y"; V "z" ]; tag t ] )
    | "cycle3" -> (cls, None, boolean ((anchored c "x" :: cycle [ "x"; "y"; "z" ]) @ [ tag t ]))
    | "cycle4" -> (cls, None, boolean (anchored c "w" :: cycle [ "w"; "x"; "y"; "z" ]))
    | "clique4" | "clique5" ->
      let vs = vars (if kind = "clique4" then 4 else 5) "v" in
      (cls, None, boolean (anchored c (List.hd vs) :: clique_atoms "R" vs))
    | "product" ->
      let a = vars 4 "a" and b = vars 4 "b" in
      ( cls, None,
        boolean
          ((anchored c (List.hd a) :: clique_atoms "R" a)
          @ (anchored t (List.hd b) :: clique_atoms "R" b)) )
    | "sat" ->
      let vs = vars 4 "x" in
      let both =
        List.concat_map
          (fun a -> List.filter_map (fun b -> if a <> b then Some (atom "E" [ V a; V b ]) else None) vs)
          vs
      in
      (cls, Some "auto", boolean (both @ [ tag t ]))
    | k -> invalid_arg ("cold-mix kind " ^ k)
  in
  let round = Array.of_list (spread cold_round) in
  let rounds = 30 in
  let queries =
    Array.init (rounds * Array.length round) (fun i ->
        let kind = round.(i mod Array.length round) in
        let cls, backend, q = make kind in
        query_req ?backend "mix" db ~kind ~cls q)
  in
  let side = graph st ~rel:"R" ~facts:900 ~consts ~nulls ~null_share @ tags @ k3 in
  let writes = side_writes st side ~db:"mix-w" ~consts ~nulls ~null_share (Array.length queries) in
  {
    name = "cold-mix";
    dbs = [ ("mix", source facts); ("mix-w", source side) ];
    items = interleave ~every:1 writes queries; cyclic = false; schedule = false;
    query_tail = 0.90;
  }

(* ---- churn ------------------------------------------------------------

   Writes beside reads at the second scale: a ~10^4-fact db with two
   relations, one connection.  Each cycle reloads the db (every third
   cycle the base version again, otherwise a fresh version with a few R
   facts changed), invalidates R scoped to the db, then reads a burst of
   anchored point lookups — [burst] distinct ones on each relation, each
   sent [repeat] times.  Fresh versions orphan their entries, which pile
   up past the 1024-entry cache and force evictions; base-version cycles
   find their S entries still cached and their R entries invalidated.
   The stream is cyclic, so a run lasts its full time: a fresh version's
   entries are evicted long before the next pass reloads it, and later
   passes follow the first one's schedule once its cold start is over. *)

let churn_cycles = 250
let burst = 6
let repeat = 3

let churn seed =
  let st = rng seed 3 in
  let consts = 2000 and nulls = 200 and null_share = 0.1 in
  let base =
    graph st ~rel:"R" ~facts:5000 ~consts ~nulls ~null_share
    @ graph st ~rel:"S" ~facts:5000 ~consts ~nulls ~null_share
  in
  let base_source = source base in
  let hot_anchors = Array.init 32 (fun _ -> 1 + Random.State.int st consts) in
  let items = ref [] in
  let push x = items := x :: !items in
  for cycle = 0 to churn_cycles - 1 do
    let version, facts, src =
      if cycle mod 3 = 0 then (0, base, base_source)
      else
        let f = mutate st base ~rel:"R" ~k:4 ~consts ~nulls ~null_share in
        (cycle, f, source f)
    in
    push (Write { wdb = "big"; wsource = src; wrel = "R"; version });
    let db = prepare facts in
    let pick () =
      let rec go acc =
        if List.length acc = burst then List.rev acc
        else
          let a = hot_anchors.(Random.State.int st (Array.length hot_anchors)) in
          if List.mem a acc then go acc else go (a :: acc)
      in
      go []
    in
    let reads =
      List.concat_map
        (fun rel ->
          List.map
            (fun c ->
              let q = { head = [ "y" ]; atoms = [ atom rel [ K c; V "y" ] ] } in
              query_req ~rel "big" db ~kind:("point-" ^ rel)
                ~cls:(Printf.sprintf "v%d:%s:%d" version rel c)
                q)
            (pick ()))
        [ "R"; "S" ]
    in
    for _ = 1 to repeat do
      List.iter push reads
    done
  done;
  {
    name = "churn"; dbs = [ ("big", base_source) ];
    items = Array.of_list (List.rev !items); cyclic = true;
    schedule = true; query_tail = 0.99;
  }

let make name seed =
  match name with
  | "hot-replay" -> hot seed
  | "cold-mix" -> cold seed
  | "churn" -> churn seed
  | _ -> invalid_arg name
