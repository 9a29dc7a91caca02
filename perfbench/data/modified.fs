# Bill obviously appointed Hillary.
f:[PRED 'appoint';
   SUBJ g:[PRED 'Bill'];
   OBJ h:[PRED 'Hillary'];
   MODS { m:[PRED 'obviously'] }]
