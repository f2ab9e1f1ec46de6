MATCH path = shortestPath((a:Person {id: $person1Id})-[:KNOWS*]-(b:Person {id: $person2Id}))
RETURN DISTINCT length(path) AS shortestPathLength
