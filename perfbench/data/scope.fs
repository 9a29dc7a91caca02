# Every candidate appointed a manager.
f:[PRED 'appoint';
   SUBJ g:[SPEC every; PRED 'candidate'];
   OBJ h:[SPEC a; PRED 'manager']]
