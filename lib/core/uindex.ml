(** The U-index library: a uniform indexing scheme for object-oriented
    databases (Gudes, Information Systems 22(4), 1997).

    - {!Ukey}: composite-key encoding of index entries
    - {!Keyrow}: result rows printed straight from entry key bytes
    - {!Query}: the query language (values, class patterns, path slots)
    - {!Qparse}: the textual query format of Section 3.4
    - {!Plan}: query compilation to key-space navigation
    - {!Index}: the index structure (class-hierarchy / path / combined /
      multi-path) and its maintenance
    - {!Exec}: forward-scanning and parallel retrieval algorithms, plus
      explain output (the Fig. 3 search tree)
    - {!Db}: store + indexes kept in sync
    - {!Grouped}: the alternative OID-list entry layout of Section 3.2.1
    - {!Schema_index}: schema relations stored in the same kind of index
      (Section 4.1) *)

module Ukey = Ukey
module Keyrow = Keyrow
module Query = Query
module Qparse = Qparse
module Plan = Plan
module Index = Index
module Exec = Exec
module Verify = Verify
module Db = Db
module Grouped = Grouped
module Schema_index = Schema_index
